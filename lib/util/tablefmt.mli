(** Plain-text and CSV rendering of experiment result tables.

    Every experiment harness produces one [t]; the bench driver prints
    it aligned to stdout (the "figure/table" the paper would show) and
    can also dump CSV for external plotting. *)

type align = Left | Right

type t

val create : title:string -> columns:(string * align) list -> t

val add_row : t -> string list -> unit
(** [add_row t cells] appends a row; the cell count must match the
    column count. *)

val rows : t -> string list list

val title : t -> string

val to_string : t -> string
(** Aligned plain-text rendering with a header rule. *)

val to_csv : t -> string

val print : t -> unit
(** [print t] writes [to_string t] to stdout followed by a blank
    line. *)

val cell_float : float -> string
(** Compact numeric rendering: integers without decimals, large values
    with thousands separators elided, small values with 2 decimals. *)

val cell_int : int -> string
