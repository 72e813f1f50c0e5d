exception Malformed

let enc_int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ';'

let enc_str b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

type reader = { s : string; mutable pos : int }

let reader ?(pos = 0) s = { s; pos }

let upto r stop =
  match String.index_from_opt r.s r.pos stop with
  | None -> raise Malformed
  | Some i ->
    let tok = String.sub r.s r.pos (i - r.pos) in
    r.pos <- i + 1;
    tok

let int_ r =
  match int_of_string_opt (upto r ';') with
  | Some n -> n
  | None -> raise Malformed

let str_ r =
  match int_of_string_opt (upto r ':') with
  | None -> raise Malformed
  | Some len ->
    if len < 0 || r.pos + len > String.length r.s then raise Malformed;
    let s = String.sub r.s r.pos len in
    r.pos <- r.pos + len;
    s
