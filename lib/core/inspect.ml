type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Assoc of (string * value) list

(* ------------------------------------------------------------------ *)
(* Provider registry                                                   *)

(* Providers accumulate in registration order; registration order is
   itself deterministic because everything that registers does so from
   inside a deterministic run.  [snapshot] sorts by name (stable, so
   duplicate names keep registration order) to decouple the dump from
   incidental creation order.

   The registry lives in the run's {!Ctx}: every engine binds a fresh
   one at creation, so two engines in one process never see each
   other's providers.  [register] keeps its old arity by targeting the
   context of whichever engine the calling domain is stepping; outside
   any run it is a no-op (there is no registry to describe state to,
   exactly as [reset]-at-start used to guarantee). *)
type registry = (string * (unit -> value)) list ref

let slot : registry Ctx.slot = Ctx.slot "inspect.registry"

let create_registry () : registry = ref []

let attach ctx r = Ctx.set_in ctx slot r

let register ~name f =
  match Ctx.get slot with
  | None -> ()
  | Some providers -> providers := (name, f) :: !providers

let snapshot_in ctx =
  match Ctx.get_in ctx slot with
  | None -> []
  | Some providers ->
    List.stable_sort
      (fun (a, _) (b, _) -> compare a b)
      (List.rev_map (fun (name, f) -> (name, f ())) !providers)

(* ------------------------------------------------------------------ *)
(* Text rendering                                                      *)

(* One line per scalar, two-space indentation per level: trivially
   diffable with line tools, byte-identical for equal values. *)
let render v =
  let buf = Buffer.create 1024 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let scalar = function
    | Null -> "null"
    | Bool b -> string_of_bool b
    | Int n -> string_of_int n
    | Float f -> Printf.sprintf "%.6g" f
    | String s -> s
    | List _ | Assoc _ -> assert false
  in
  (* no trailing spaces: the separator space appears only when something
     follows on the same line (scalar or "[]"/"{}") *)
  let key_sep = function
    | Null | Bool _ | Int _ | Float _ | String _ | List [] | Assoc [] -> ": "
    | List _ | Assoc _ -> ":"
  in
  let item_dash = function
    | Null | Bool _ | Int _ | Float _ | String _ | List [] | Assoc [] -> "- "
    | List _ | Assoc _ -> "-"
  in
  let rec go indent v =
    match v with
    | Null | Bool _ | Int _ | Float _ | String _ ->
      Buffer.add_string buf (scalar v);
      Buffer.add_char buf '\n'
    | List [] -> Buffer.add_string buf "[]\n"
    | List items ->
      Buffer.add_char buf '\n';
      List.iter
        (fun item ->
          pad indent;
          Buffer.add_string buf (item_dash item);
          go (indent + 2) item)
        items
    | Assoc [] -> Buffer.add_string buf "{}\n"
    | Assoc fields ->
      Buffer.add_char buf '\n';
      List.iter
        (fun (k, item) ->
          pad indent;
          Buffer.add_string buf k;
          Buffer.add_string buf (key_sep item);
          go (indent + 2) item)
        fields
  in
  (match v with
  | Assoc _ | List _ ->
    (* top level starts at column 0 without a leading blank line *)
    let top v =
      match v with
      | Assoc fields ->
        List.iter
          (fun (k, item) ->
            Buffer.add_string buf k;
            Buffer.add_string buf (key_sep item);
            go 2 item)
          fields
      | List items ->
        List.iter
          (fun item ->
            Buffer.add_string buf (item_dash item);
            go 2 item)
          items
      | _ -> go 0 v
    in
    top v
  | _ -> go 0 v);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* [spill buf] runs after each list element and object member, so a
   streaming writer can hand the buffer to its channel as it fills. *)
let rec add_json spill buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    (* JSON has no NaN/inf; clamp to null like most encoders *)
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
    else Buffer.add_string buf "null"
  | String s -> add_json_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        add_json spill buf item;
        spill buf)
      items;
    Buffer.add_char buf ']'
  | Assoc fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        add_json_string buf k;
        Buffer.add_char buf ':';
        add_json spill buf item;
        spill buf)
      fields;
    Buffer.add_char buf '}'

let to_json v =
  let buf = Buffer.create 1024 in
  add_json ignore buf v;
  Buffer.contents buf

let output_json oc v =
  let chunk = 65_536 in
  let buf = Buffer.create chunk in
  let spill buf =
    if Buffer.length buf >= chunk then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  add_json spill buf v;
  Buffer.output_buffer oc buf
