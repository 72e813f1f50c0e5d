(** On-chip topology: how many cores there are and how far apart any
    two of them sit.

    The paper's target is "hundreds of cores or more in a single chip".
    The distance function feeds the interconnect cost model: a message
    between cores is charged per hop, so topology shapes every
    cross-core cost in the simulator.  [Hierarchy] models the realistic
    core → cluster → die packaging where intra-cluster hops are cheap
    and die crossings expensive. *)

type shape =
  | Single                     (** one core, no interconnect *)
  | Crossbar of int            (** n cores, uniform 1-hop all-to-all *)
  | Ring of int                (** n cores on a bidirectional ring *)
  | Mesh of int * int          (** [Mesh (w, h)]: 2D mesh, XY routing *)
  | Hierarchy of int * int * int
      (** [Hierarchy (dies, clusters_per_die, cores_per_cluster)] *)

type t

type core = int
(** Cores are numbered [0 .. cores-1]. *)

val make : shape -> t

val cores : t -> int

val hops : t -> core -> core -> int
(** [hops t a b] is the routing distance in link hops; 0 when [a = b].
    For [Hierarchy] a hop count is synthesized as: 1 within a cluster,
    [3] crossing clusters on one die, [8] crossing dies. *)

val centre : t -> core
(** The core nearest the middle of the chip: a mesh's middle core,
    [((h-1)/2)·w + (w-1)/2]; core 0 for every other shape. *)

val mesh_sides : t -> (int * int) option
(** [Some (w, h)] for a [Mesh (w, h)]; [None] for every other shape. *)

val diameter : t -> int
(** Maximum [hops] over all core pairs. *)

val neighbours : t -> core -> core list
(** Directly linked cores (used by locality-aware placement). *)

val to_string : t -> string
