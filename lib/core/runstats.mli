(** Aggregate results of one simulated run. *)

type t = {
  makespan : int;  (** last cycle at which anything happened *)
  busy : int array;  (** busy cycles per core *)
  utilization : float;  (** mean busy/makespan over all cores *)
  msgs : int;
  remote_msgs : int;
  words_copied : int;
  hops : int;
  spawns : int;
  steals : int;
  segments : int;
  events : int;
  wakes : int;
  retries : int;  (** protocol retransmissions (e.g. [Stack.call] retries) *)
}

val of_engine : Engine.t -> t

val throughput : t -> ops:int -> float
(** [throughput t ~ops]: operations per million cycles. *)

val pp : Format.formatter -> t -> unit
