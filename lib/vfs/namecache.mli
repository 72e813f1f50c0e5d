(** The projected-namespace name cache: an LRU of path -> value
    bindings with the DragonFly VFS entry lifecycle.

    DragonFly's namecache keeps every entry in one of four states and
    lets the state, not a lock, say what may happen to it:

    - {e cached} — resolved and idle; evictable.
    - {e active} — some client holds a reference (an open handle went
      through this entry); never evicted.
    - {e inactive} — the last reference was dropped; evictable again
      but still authoritative, so a re-open is a pure cache hit.
    - {e dying} — invalidated (create/rename/unlink shadowed the name)
      while references were still out.  A dying entry answers no more
      lookups and is reaped when its last reference drops.

    Negative entries (the name is known {e absent}) are first-class:
    they make repeated misses cheap and are invalidated by exactly the
    operations that could materialize the name.

    The cache is a host-visible data structure: operations never
    charge cycles or advance virtual time; determinism comes from the
    caller.  Eviction order is deterministic (oldest access tick
    first, insertion order breaking ties). *)

type state = Cached | Active | Inactive | Dying

type 'v t

val create : cap:int -> unit -> 'v t
(** LRU capacity [cap] (>= 1): at most [cap] entries in an evictable
    state are retained; [Active]/[Dying] entries never count against
    eviction scans but do occupy the table. *)

val find : 'v t -> string -> [ `Hit of 'v | `Negative | `Miss ]
(** Touch + classify.  [Dying] entries answer [`Miss] (they are dead
    to lookups even while references keep them in the table). *)

val insert : 'v t -> string -> 'v -> unit
(** Bind [name] in state [Cached], evicting the least-recently used
    evictable entry when over capacity.  Rebinding an existing entry
    refreshes its value in place.  Rebinding a [Dying] entry replaces
    it with a fresh binding that keeps its reference count (so it is
    [Active] while any are out): releases are by name, and the old
    holders' releases then land on the new binding. *)

val insert_negative : 'v t -> string -> unit
(** Bind [name] as known-absent (state [Cached], no value). *)

val acquire : 'v t -> string -> unit
(** Take a reference: [Cached]/[Inactive] -> [Active].  No-op on a
    miss or negative entry. *)

val release : 'v t -> string -> unit
(** Drop a reference: [Active] with no remaining refs -> [Inactive];
    [Dying] with no remaining refs is reaped. *)

val invalidate : 'v t -> string -> unit
(** The name changed (create over a negative entry, rename, unlink):
    entries without references are dropped immediately, referenced
    entries go [Dying] until their last {!release}. *)

val state_of : 'v t -> string -> state option

val length : 'v t -> int

val state_counts : 'v t -> (state * int) list
(** [(Cached, n); (Active, n); (Inactive, n); (Dying, n)] — always all
    four, in that order. *)

val state_name : state -> string

(** {1 Counters} (monotonic, host-side) *)

val hits : 'v t -> int

val misses : 'v t -> int

val negative_hits : 'v t -> int

val evictions : 'v t -> int

val invalidations : 'v t -> int
