module Chan = Chorus.Chan

exception Violation of string

type 'a t = {
  role : string;
  label_of : 'a -> string;
  tx : 'a Chan.t;
  rx : 'a Chan.t;
  mutable state : Ltype.t;
  mutable violations : int;
}

let create ~role ~spec ~label_of ?rx chan =
  (match Ltype.well_formed spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Monitor.create: " ^ e));
  { role; label_of; tx = chan; rx = Option.value ~default:chan rx;
    state = spec; violations = 0 }

let violate t msg =
  t.violations <- t.violations + 1;
  raise (Violation (Printf.sprintf "[%s] %s (at %s)" t.role msg
                      (Ltype.to_string t.state)))

let send ?words t v =
  let l = t.label_of v in
  match Ltype.unfold t.state with
  | Ltype.Send branches -> (
    match List.assoc_opt l branches with
    | Some k ->
      Chan.send ?words t.tx v;
      t.state <- k
    | None -> violate t (Printf.sprintf "sent unexpected label %S" l))
  | Ltype.Recv _ -> violate t (Printf.sprintf "sent %S when expecting to receive" l)
  | Ltype.End -> violate t (Printf.sprintf "sent %S after protocol end" l)
  | Ltype.Rec _ | Ltype.Var _ -> assert false

let recv t =
  match Ltype.unfold t.state with
  | Ltype.Recv branches -> (
    let v = Chan.recv t.rx in
    let l = t.label_of v in
    match List.assoc_opt l branches with
    | Some k ->
      t.state <- k;
      v
    | None -> violate t (Printf.sprintf "received unexpected label %S" l))
  | Ltype.Send _ -> violate t "receiving when expected to send"
  | Ltype.End -> violate t "receiving after protocol end"
  | Ltype.Rec _ | Ltype.Var _ -> assert false


let finished t = Ltype.unfold t.state = Ltype.End

let violations t = t.violations
