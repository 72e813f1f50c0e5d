(** Middleweight and synchronous IPC comparators (paper Section 2).

    "Most messages seen in systems are middleweight, comparable to a
    system call or network packet: most microkernel messages and
    distributed OS messages fall into this category.  Mach is the
    canonical example.  (Note however that in some systems, such as
    L4, messages are synchronous; the caller is suspended until a
    response arrives.  These are really procedure calls, not messages
    in the general sense.)"

    Two IPC disciplines implemented over the same channels, with their
    characteristic costs charged:

    - {!Port}: Mach-style asynchronous port IPC — every send and every
      receive is a protection-domain crossing, with a port-right
      lookup and a user/kernel copy on each side;
    - {!Sync}: L4-style synchronous IPC — a combined call that
      direct-switches to the server: one crossing in, one out, no
      buffering (rendezvous semantics).

    E18 lines these up against raw lightweight channels. *)

module Port : sig
  type 'a t

  val create : ?label:string -> unit -> 'a t
  (** Port with a queue limit of 16 (Mach's default-ish). *)

  val send : ?words:int -> 'a t -> 'a -> unit

  val recv : 'a t -> 'a

  val rpc : ?words:int -> ('a * 'b t) t -> 'a -> 'b
  (** Request with a reply port inside, Mach style. *)
end

module Sync : sig
  type ('a, 'b) t

  val create : ?label:string -> unit -> ('a, 'b) t

  val call : ?words:int -> ('a, 'b) t -> 'a -> 'b
  (** Blocks until the server replies (the "really a procedure call"
      discipline). *)

  val serve : ('a, 'b) t -> ('a -> 'b) -> unit
  (** Receive, compute, reply, forever. *)
end
