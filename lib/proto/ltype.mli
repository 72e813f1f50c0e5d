(** Local session types for channel protocols.

    Paper Section 4: "the use of messages, channels, and defined
    protocols offers some potential for static verification using
    techniques developed for networking software."  A [Ltype.t]
    describes one endpoint's view of a conversation: which message
    labels it may send or must be ready to receive, in what order.
    Two endpoints are safe to wire together when their types are
    {!compatible} (each send meets a matching receive). *)

type t =
  | Send of (string * t) list
      (** internal choice: we pick one label and continue *)
  | Recv of (string * t) list
      (** external choice: the peer picks; we must handle every label *)
  | Rec of string * t  (** recursion binder *)
  | Var of string
  | End

(** {1 Constructors} *)

val send : string -> t -> t
(** Single-label send. *)

val recv : string -> t -> t

val loop : string -> t -> t
(** [loop x body] is [Rec (x, body)]. *)

(** {1 Analysis} *)

val well_formed : t -> (unit, string) result
(** Checks: no free recursion variables, recursion is guarded (no
    [Rec (x, Var x)]), and choice labels are distinct. *)

val dual : t -> t
(** Mirror image: sends become receives and vice versa. *)

val unfold : t -> t
(** Expose the head constructor by unrolling one [Rec] if needed. *)

val compatible : t -> t -> bool
(** [compatible a b]: can endpoints following [a] and [b] interact
    forever without a message mismatch?  Coinductive check: [a] must
    behave as [dual b] up to unfolding, allowing the sender to use a
    subset of the labels the receiver handles (standard session
    subtyping). *)

val to_string : t -> string
