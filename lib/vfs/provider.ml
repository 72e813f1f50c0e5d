module Fiber = Chorus.Fiber
module Rng = Chorus_util.Rng
module Stack = Chorus_net.Stack
module Fsspec = Chorus_fsspec.Fsspec

type catalog = { seed : int; nfiles : int }

let dir_width = 32

let catalog ~seed ~nfiles =
  if nfiles < 1 then invalid_arg "Provider.catalog: nfiles must be >= 1";
  { seed; nfiles }

let port = 7300

let crashpoint = Printf.sprintf "net.port-%d" port

let ndirs cat = (cat.nfiles + dir_width - 1) / dir_width

let dir_name d = Printf.sprintf "d%03d" d

let file_name i = Printf.sprintf "f%06d" i

let rel_path cat i =
  if i < 0 || i >= cat.nfiles then invalid_arg "Provider.rel_path"
  else Printf.sprintf "%s/%s" (dir_name (i / dir_width)) (file_name i)

(* parse a relative path back to the global file index; canonical
   forms only (what rel_path printed), so "d1/f2" names nothing *)
let index_of cat rel =
  match String.index_opt rel '/' with
  | None -> None
  | Some slash ->
    let d = String.sub rel 0 slash in
    let f = String.sub rel (slash + 1) (String.length rel - slash - 1) in
    let num prefix s =
      if
        String.length s > 1
        && s.[0] = prefix
        && String.for_all (fun c -> c >= '0' && c <= '9')
             (String.sub s 1 (String.length s - 1))
      then int_of_string_opt (String.sub s 1 (String.length s - 1))
      else None
    in
    (match (num 'd' d, num 'f' f) with
    | Some dn, Some i
      when i >= 0 && i < cat.nfiles && i / dir_width = dn
           && String.equal rel (rel_path cat i) ->
      Some i
    | _ -> None)

let content_of_index cat i =
  let rng = Rng.make ((cat.seed * 2_654_435_761) + (i * 40_503) + 17) in
  let extra = Rng.int rng 80 in
  let b = Buffer.create (48 + extra) in
  Buffer.add_string b
    (Printf.sprintf "%s|seed=%d|" (rel_path cat i) cat.seed);
  for _ = 1 to 24 + extra do
    Buffer.add_char b (Char.chr (Char.code 'a' + Rng.int rng 26))
  done;
  Buffer.contents b

let content cat rel = Option.map (content_of_index cat) (index_of cat rel)

let size_of cat rel = Option.map String.length (content cat rel)

let dir_index_of cat rel =
  if
    String.length rel > 1
    && rel.[0] = 'd'
    && String.for_all (fun c -> c >= '0' && c <= '9')
         (String.sub rel 1 (String.length rel - 1))
  then
    match int_of_string_opt (String.sub rel 1 (String.length rel - 1)) with
    | Some d when d >= 0 && d < ndirs cat && String.equal rel (dir_name d) ->
      Some d
    | _ -> None
  else None

let dir_entries cat rel =
  if String.equal rel "" then
    Some
      (List.init (ndirs cat) (fun d -> (dir_name d, Fsspec.Dir, 0)))
  else
    match dir_index_of cat rel with
    | None -> None
    | Some d ->
      let lo = d * dir_width in
      let hi = min cat.nfiles ((d + 1) * dir_width) in
      Some
        (List.init (hi - lo) (fun k ->
             let i = lo + k in
             ( file_name i,
               Fsspec.File,
               String.length (content_of_index cat i) )))

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)

let encode_entries entries =
  String.concat " "
    (List.map
       (fun (name, kind, size) ->
         match kind with
         | Fsspec.Dir -> name ^ "/"
         | Fsspec.File -> Printf.sprintf "%s:%d" name size)
       entries)

let decode_entries payload =
  if String.equal payload "" then []
  else
    List.filter_map
      (fun tok ->
        let n = String.length tok in
        if n = 0 then None
        else if tok.[n - 1] = '/' then
          Some (String.sub tok 0 (n - 1), Fsspec.Dir, 0)
        else
          match String.rindex_opt tok ':' with
          | None -> None
          | Some c -> (
            match int_of_string_opt (String.sub tok (c + 1) (n - c - 1)) with
            | Some size -> Some (String.sub tok 0 c, Fsspec.File, size)
            | None -> None))
      (String.split_on_char ' ' payload)

let handle cat req =
  if String.equal req "L" then
    match dir_entries cat "" with
    | Some es -> "D" ^ encode_entries es
    | None -> "N"
  else if String.length req >= 2 && req.[1] = ' ' then begin
    let rel = String.sub req 2 (String.length req - 2) in
    match req.[0] with
    | 'L' -> (
      match dir_entries cat rel with
      | Some es -> "D" ^ encode_entries es
      | None -> "N")
    | 'R' -> (
      match content cat rel with Some c -> "D" ^ c | None -> "N")
    | _ -> "N"
  end
  else "N"

type t = {
  mutable requests : int;
}

let serve_in_fiber t cat stack =
  Stack.serve_async stack ~port (fun ~src:_ req ~reply ->
      (* a list or read walks the provider's own tables: charge a
         base lookup plus a per-byte marshalling cost *)
      let resp = handle cat req in
      Fiber.work (400 + (String.length resp / 4));
      t.requests <- t.requests + 1;
      reply resp)

let make () = { requests = 0 }

let starter t cat stack () =
  Fiber.spawn ~label:"provider" ~daemon:true (fun () ->
      serve_in_fiber t cat stack)

let serve cat stack =
  let t = make () in
  ignore (starter t cat stack ());
  t

let requests t = t.requests
