type t =
  | Send of (string * t) list
  | Recv of (string * t) list
  | Rec of string * t
  | Var of string
  | End

let send l k = Send [ (l, k) ]

let recv l k = Recv [ (l, k) ]

let loop x body = Rec (x, body)


let rec well_formed_in env = function
  | End -> Ok ()
  | Var x ->
    if List.mem_assoc x env then
      if List.assoc x env then Ok ()
      else Error (Printf.sprintf "unguarded recursion on %s" x)
    else Error (Printf.sprintf "free recursion variable %s" x)
  | Rec (x, body) -> well_formed_in ((x, false) :: env) body
  | Send branches | Recv branches ->
    let labels = List.map fst branches in
    let rec dup = function
      | [] -> None
      | l :: rest -> if List.mem l rest then Some l else dup rest
    in
    (match dup labels with
    | Some l -> Error (Printf.sprintf "duplicate label %s" l)
    | None ->
      if branches = [] then Error "empty choice"
      else begin
        (* below a communication, every bound variable is guarded *)
        let env = List.map (fun (x, _) -> (x, true)) env in
        List.fold_left
          (fun acc (_, k) ->
            match acc with Error _ -> acc | Ok () -> well_formed_in env k)
          (Ok ()) branches
      end)

let well_formed t = well_formed_in [] t

let rec dual = function
  | End -> End
  | Var x -> Var x
  | Rec (x, body) -> Rec (x, dual body)
  | Send branches -> Recv (List.map (fun (l, k) -> (l, dual k)) branches)
  | Recv branches -> Send (List.map (fun (l, k) -> (l, dual k)) branches)

let rec subst x replacement = function
  | End -> End
  | Var y -> if y = x then replacement else Var y
  | Rec (y, body) ->
    if y = x then Rec (y, body) else Rec (y, subst x replacement body)
  | Send branches ->
    Send (List.map (fun (l, k) -> (l, subst x replacement k)) branches)
  | Recv branches ->
    Recv (List.map (fun (l, k) -> (l, subst x replacement k)) branches)

let rec unfold = function
  | Rec (x, body) as whole -> unfold (subst x whole body)
  | t -> t

(* Coinductive compatibility: explore pairs of (a, dual-expected b)
   states; assume visited pairs hold (standard for regular trees).
   Sender-side subtyping: a Send may offer a subset of what the peer's
   Recv handles; a Recv must cover everything the peer's Send may
   pick. *)
let compatible a b =
  let visited = Hashtbl.create 16 in
  let rec go a b =
    let key = (a, b) in
    if Hashtbl.mem visited key then true
    else begin
      Hashtbl.add visited key ();
      match (unfold a, unfold b) with
      | End, End -> true
      | Send abr, Recv bbr ->
        (* every label a may send, b handles; then continuations match *)
        List.for_all
          (fun (l, ka) ->
            match List.assoc_opt l bbr with
            | Some kb -> go ka kb
            | None -> false)
          abr
      | Recv abr, Send bbr ->
        List.for_all
          (fun (l, kb) ->
            match List.assoc_opt l abr with
            | Some ka -> go ka kb
            | None -> false)
          bbr
      | (End | Send _ | Recv _ | Rec _ | Var _), _ -> false
    end
  in
  go a b

let rec pp ppf = function
  | End -> Format.pp_print_string ppf "end"
  | Var x -> Format.pp_print_string ppf x
  | Rec (x, body) -> Format.fprintf ppf "rec %s.%a" x pp body
  | Send [ (l, k) ] -> Format.fprintf ppf "!%s.%a" l pp k
  | Recv [ (l, k) ] -> Format.fprintf ppf "?%s.%a" l pp k
  | Send branches ->
    Format.fprintf ppf "+{%a}" pp_branches branches
  | Recv branches ->
    Format.fprintf ppf "&{%a}" pp_branches branches

and pp_branches ppf branches =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (l, k) -> Format.fprintf ppf "%s: %a" l pp k)
    ppf branches

let to_string t = Format.asprintf "%a" pp t
