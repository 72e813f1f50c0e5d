(** Bounded state-space exploration of communicating processes.

    The static half of the paper's verification claim: a system of
    processes, each a finite automaton over send/receive actions on
    named channels, is explored exhaustively (up to a state budget) for
    global deadlocks — configurations where nobody can move but not
    everyone is finished.  Rendezvous channels synchronize sender and
    receiver; buffered channels hold up to their capacity of labels.

    This is the networking-protocol model-checking style (reachability
    in a product automaton) the paper alludes to; it finds the classic
    two-lock / crossed-rendezvous deadlocks in kernels built from
    autonomous message-passing components before they are run. *)

type action =
  | Send of string * string  (** channel, label *)
  | Recv of string * string
  | Tau  (** internal step *)

type process = {
  pname : string;
  start : int;
  final : int list;  (** states in which termination is acceptable *)
  transitions : (int * action * int) list;
}

type channel_decl = { cname : string; capacity : int (** 0 = rendezvous *) }

type system = { processes : process list; channels : channel_decl list }

type verdict =
  | Ok_no_deadlock of { states_explored : int }
  | Deadlock of {
      states_explored : int;
      trace : string list;  (** readable action path to the deadlock *)
      stuck : string list;  (** which processes are stuck, and where *)
    }
  | Budget_exhausted of { states_explored : int }

val check : ?max_states:int -> system -> verdict
(** Breadth-first reachability from the initial configuration;
    [max_states] defaults to 200_000. *)
