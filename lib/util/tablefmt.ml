type align = Left | Right

type t = {
  title : string;
  columns : (string * align) array;
  mutable rev_rows : string list list;
}

let create ~title ~columns =
  { title; columns = Array.of_list columns; rev_rows = [] }

let add_row t cells =
  if List.length cells <> Array.length t.columns then
    invalid_arg
      (Printf.sprintf "Tablefmt.add_row (%s): %d cells for %d columns"
         t.title (List.length cells) (Array.length t.columns));
  t.rev_rows <- cells :: t.rev_rows

let rows t = List.rev t.rev_rows

let title t = t.title

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s

let to_string t =
  let headers = Array.to_list (Array.map fst t.columns) in
  let all = headers :: rows t in
  let ncols = Array.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < ncols && String.length cell > widths.(i) then
            widths.(i) <- String.length cell)
        row)
    all;
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  let render_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        let align = if i < ncols then snd t.columns.(i) else Left in
        Buffer.add_string buf (pad align widths.(i) cell))
      row;
    Buffer.add_char buf '\n'
  in
  render_row headers;
  let rule_len =
    Array.fold_left ( + ) 0 widths + (2 * (ncols - 1))
  in
  Buffer.add_string buf (String.make rule_len '-');
  Buffer.add_char buf '\n';
  List.iter render_row (rows t);
  Buffer.contents buf

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 256 in
  let render_row row =
    Buffer.add_string buf (String.concat "," (List.map csv_escape row));
    Buffer.add_char buf '\n'
  in
  render_row (Array.to_list (Array.map fst t.columns));
  List.iter render_row (rows t);
  Buffer.contents buf

let print t =
  print_string (to_string t);
  print_newline ()

let cell_float f =
  if Float.is_nan f then "-"
  else if Float.abs (f -. Float.round f) < 1e-9 && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if Float.abs f >= 100.0 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.2f" f

let cell_int = string_of_int
