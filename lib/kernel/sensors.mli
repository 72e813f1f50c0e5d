(** Hardware event sources.

    The paper's Section 3.1 examples of events that "necessarily
    originate in the kernel and flow upward" — thermal readings, power
    transitions, core hot-plug — need an origin.  This service fiber
    samples a synthetic die model on a configurable period and
    publishes onto the {!Notify} hub: a complete in-kernel producer for
    the notification path.  (E7 uses neither module: it compares raw
    channels with {!Chorus_baseline.Signals}.) *)

type config = {
  period : int;  (** cycles between samples *)
  samples : int;  (** 0 = run forever *)
  base_temp : int;
  temp_swing : int;  (** deterministic triangular oscillation *)
  power_every : int;  (** publish a power event every n samples *)
  hotplug_every : int;  (** toggle a core every n samples; 0 = never *)
}

val default_config : config
(** 50k-cycle period, forever, 60±15 degrees, power every 7, no
    hotplug. *)

type t

val start : ?config:config -> Notify.t -> t

val samples_taken : t -> int

val stop : t -> unit
