(** Lightweight typed message channels (paper Section 3).

    A channel is the endpoint object through which fibers exchange
    values.  Three flavours cover the design space the paper discusses:

    - {!rendezvous}: blocking send — "waits until a receiver is
      available", the CSP/occam primitive, "easier to implement in a
      low-level environment (no buffering) and more powerful";
    - {!buffered}: bounded queue — senders block only when full;
    - {!unbounded}: non-blocking send that "queues values for later",
      the Erlang mailbox flavour.

    Channels are first-class values and can themselves be sent through
    channels ("plumb a connection by passing around a channel", paper
    Section 3) — this falls out of the types for free and the kernel's
    file-handle plumbing (D3) relies on it.

    Sends are charged to the sending fiber (injection + payload copy);
    transit and receive-side costs appear as message latency scaled by
    the hop distance between the two fibers' cores.

    {!choose} is the paper's [choice] construct: exactly one of the
    cases executes, whichever becomes ready first.  The default
    implementation is CML-style one-shot commitment (offers carrying a
    shared commit cell are registered with every involved channel); the
    [`Poll] strategy is the naive periodic-polling alternative kept as
    an ablation for experiment E6. *)

type 'a t

exception Closed

(** {1 Construction} *)

val rendezvous : ?label:string -> unit -> 'a t

val buffered : ?label:string -> int -> 'a t
(** [buffered n] has [n] slots, [n >= 1]. *)

val unbounded : ?label:string -> unit -> 'a t

(** {1 Communication} *)

val send : ?words:int -> 'a t -> 'a -> unit
(** [send c v] delivers [v].  Blocks on a rendezvous channel until a
    receiver takes the value, and on a full buffered channel until a
    slot frees.  [words] is the payload size for cost accounting
    (default 2).  Raises {!Closed} if [c] is closed. *)

val recv : 'a t -> 'a
(** [recv c] takes the next value, blocking while none is available.
    Raises {!Closed} once the channel is closed and drained. *)

val try_send : ?words:int -> 'a t -> 'a -> bool
(** Non-blocking send: [false], with nothing charged, where {!send}
    would block; otherwise the send, and [true].  The message is
    stamped before the send-side charge (where {!send} stamps after
    it), so it leaves [msg_inject + words * msg_per_word] cycles
    earlier than an identical blocking send. *)

val try_recv : 'a t -> 'a option
(** Non-blocking receive: [None] instead of blocking. *)

val close : 'a t -> unit
(** [close c] marks the channel closed and aborts every blocked sender
    and receiver with {!Closed}.  Values already buffered remain
    receivable.  Closing twice is a no-op. *)

val is_closed : 'a t -> bool

val length : 'a t -> int
(** Buffered values currently queued. *)

val waiting_senders : 'a t -> int

val waiting_receivers : 'a t -> int

(** {1 Choice (the [choose] statement)} *)

type 'r case

val recv_case : 'a t -> ('a -> 'r) -> 'r case
(** Ready when a value (or a blocked sender, or a closed mark) is
    available; the handler runs in the choosing fiber. *)

val send_case : ?words:int -> 'a t -> 'a -> (unit -> 'r) -> 'r case
(** Ready when the send can complete without blocking. *)

val after : int -> (unit -> 'r) -> 'r case
(** Ready once [n] cycles have elapsed; the timeout arm. *)

val default : (unit -> 'r) -> 'r case
(** Taken immediately when no other case is ready (makes the whole
    choice non-blocking).  At most one per choice. *)

type strategy = Commit | Poll of int
(** [Commit]: CML-style registration, wake on first ready (default).
    [Poll n]: re-poll every [n] cycles — the naive implementation,
    measurably worse in both latency and burned cycles (E6). *)

val choose : ?strategy:strategy -> 'r case list -> 'r
(** Executes exactly one ready case.  When several are ready at poll
    time the pick is uniform (seeded).  Raises [Invalid_argument] on an
    empty case list. *)
