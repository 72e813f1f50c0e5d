(** Runtime protocol enforcement.

    A monitor wraps one endpoint of a channel with a session type and
    checks every message label against the protocol state, raising
    {!Violation} the moment an endpoint misbehaves — turning a silent
    interleaving bug into an immediate, attributable failure.  This is
    the dynamic half of the paper's verification story (the static
    half is {!Explore}). *)

type 'a t

exception Violation of string

val create :
  role:string -> spec:Ltype.t -> label_of:('a -> string) ->
  ?rx:'a Chorus.Chan.t -> 'a Chorus.Chan.t -> 'a t
(** [create ~role ~spec ~label_of chan] monitors [chan] from the
    perspective of [role] following [spec].  [label_of] maps a message
    value to its protocol label.  For a bidirectional session over a
    channel pair, [chan] carries this role's sends and [?rx] (default
    [chan]) its receives.  Raises [Invalid_argument] when [spec] is
    not well-formed. *)

val send : ?words:int -> 'a t -> 'a -> unit
(** Checked send: the label must be one the protocol allows sending
    now. *)

val recv : 'a t -> 'a
(** Checked receive: the received label must be one the protocol
    expects. *)

val finished : 'a t -> bool

val violations : 'a t -> int
(** How many violations this monitor has raised so far. *)
