(** File-server workload generator.

    Drives any {!Chorus_fsspec.Fsspec.S} implementation with a
    configurable operation mix over a Zipf-skewed file population —
    the server-style load the paper's scalability argument is about.
    Deterministic in the seed.  A run keeps one set of latency
    histograms that every client records into. *)

type mix = {
  read_ : int;
  write_ : int;
  stat_ : int;
  create_unlink : int;  (** paired create+unlink of a private file *)
}
(** Relative weights. *)

type config = {
  clients : int;
  ops_per_client : int;
  files : int;  (** shared file population size *)
  dirs : int;  (** directories the population spreads over *)
  file_size : int;  (** bytes preloaded per file *)
  io_size : int;  (** bytes per read/write *)
  theta : float;  (** Zipf skew; 0.0 = uniform *)
  mix : mix;
  think : int;  (** compute cycles between ops *)
  seed : int;
}

val default_config : config
(** Four clients, 200 ops each, 64 files over 8 directories, Zipf 0.9,
    a 60 read / 25 write / 10 stat / 5 create+unlink mix. *)

type result = {
  total_ops : int;
  failed_ops : int;
  elapsed : int;
      (** cycles of the measured client phase (setup excluded) *)
  latency : Chorus_util.Histogram.t;  (** all ops *)
  per_op : (string * Chorus_util.Histogram.t) list;
      (** "create" / "read" / "stat" / "write", in that order, each
          present once an op of its kind has run; "create" times a
          create+unlink pair *)
}

val throughput : result -> float
(** Ops per Mcycle of the client phase. *)

module Make (F : Chorus_fsspec.Fsspec.S) : sig
  val setup : F.t -> config -> unit
  (** Create the directory tree and preload the file population.
      Call once, from inside the run, before spawning clients. *)

  val run_clients : (int -> F.t) -> config -> result
  (** Spawn [config.clients] client fibers (each gets its own view via
      the argument and its own random stream, and all draw files from
      one Zipf sampler), wait for all, and return the run's figures. *)
end
