(** Cycle cost model.

    All simulator accounting is in CPU cycles.  The constants below are
    order-of-magnitude figures for a ca. 2011 out-of-order x86 core
    (traps and IPIs in the hundreds of cycles, L1 hits in single
    digits, coherence misses in the tens-to-hundreds); the experiments
    depend on their *ratios*, and the presets expose the paper's key
    hypothetical — native hardware message support (Section 4) — as a
    cheaper message cost vector. *)

type t = {
  cycles_per_us : int;
      (** clock: cycles per microsecond (for human-readable output) *)
  call : int;  (** procedure call+return (E1 yardstick) *)
  fiber_switch : int;  (** resume one runnable fiber on a core *)
  fiber_spawn : int;  (** create a fiber (stacklet + descriptor) *)
  msg_inject : int;  (** fixed sender-side cost of one send *)
  msg_per_hop : int;  (** interconnect latency per link hop *)
  msg_per_word : int;  (** payload copy cost per machine word *)
  msg_receive : int;  (** fixed receiver-side cost of one receive *)
  mode_switch : int;  (** one-way user/kernel protection-domain cross *)
  cache_hit : int;  (** L1 hit *)
  cache_miss : int;  (** miss serviced from local LLC/memory *)
  coherence_per_hop : int;
      (** extra latency per hop when a line is fetched from a remote
          owner (directory coherence) *)
  atomic : int;  (** uncontended atomic RMW *)
  interrupt : int;  (** device interrupt delivery to a core *)
  signal_deliver : int;
      (** Unix signal: frame setup + handler entry + sigreturn *)
}

val software_messages : t
(** Messages implemented over cache-coherent shared memory (today's
    hardware): send/receive cost tens of cycles plus copies. *)

val hardware_messages : t
(** The paper's hypothesis: "future hardware will have native support
    for sending and receiving messages" — injection and delivery cost a
    few cycles and payload moves at line rate. *)

val words_of_bytes : int -> int
(** [words_of_bytes n] is the number of 8-byte machine words an
    [n]-byte payload occupies, rounded up: every payload copy is
    charged [msg_per_word] for each. *)

val scale_messages : t -> float -> t
(** [scale_messages c f] multiplies the four message-cost fields by
    [f] (sensitivity sweeps). *)
