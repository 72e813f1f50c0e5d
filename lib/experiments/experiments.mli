(** Registry of all experiments (the paper's would-be tables and
    figures; see DESIGN.md Section 3 for the claim index). *)

type t = {
  id : string;  (** "e1", "e2", ... — see {!all} for the catalogue *)
  title : string;
  claim : string;  (** the paper sentence the experiment tests *)
  run : quick:bool -> seed:int -> Chorus_util.Tablefmt.t list;
}

val all : t list

val find : string -> t option
(** Lookup by id, case-insensitive; zero-padded forms ("e04") are
    accepted for "e4". *)

