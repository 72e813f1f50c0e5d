(** The remote projection provider: the node that owns the virtual
    namespace a projected mount hydrates from.

    The catalog is a pure function of [(seed, nfiles)] — no
    state, no storage — so a million-file namespace costs nothing
    until someone reads from it, and the mount side can verify
    hydrated bytes against {!content} exactly (the chaos placeholder
    oracle: torn or fabricated contents are detectable, not just
    implausible).

    Layout: 32 files per directory, directories [d000],
    [d001], ... under the projection root, files [f00000], [f00001],
    ...; the relative path of global file [i] is
    [dNNN/fIIIII] with [NNN = i / 32].  Contents are short
    (one block at most), embed the file's own path, and differ per
    seed.

    The wire protocol (port {!port}) is three request forms over
    {!Chorus_net.Stack.call}:

    - ["L"] — list the root: directory names.
    - ["L <dir>"] — list a directory: [name/] for subdirectories,
      [name:size] for files, space-separated.
    - ["R <rel>"] — read a file's contents.

    Every success is ["D" ^ payload]; ["N"] answers a request naming
    nothing (or malformed) — the distinction the placeholder needs
    between "empty" and "absent".

    {!serve} runs the handler through {!Chorus_net.Stack.serve_async},
    so retransmitted requests dedup server-side and a killed provider
    fiber can be re-served on the same port with its dedup cache
    intact (the supervised-restart path the chaos scenario exercises). *)

type catalog = { seed : int; nfiles : int }

val catalog : seed:int -> nfiles:int -> catalog

val port : int
(** 7300 — the provider's well-known service port. *)

val crashpoint : string
(** The provider's {!Chorus_svc.Svc} crash-point name
    (["net.port-7300"]) — what the projfs chaos scenario's [kill-point]
    faults target. *)

val ndirs : catalog -> int

val rel_path : catalog -> int -> string
(** Relative path of global file index [i] ([0 <= i < nfiles]). *)

val content : catalog -> string -> string option
(** The file's full contents, [None] when [rel] names no file. *)

val size_of : catalog -> string -> int option

type t

val serve : catalog -> Chorus_net.Stack.t -> t
(** Spawn a daemon fiber running the protocol handler on {!port} of
    [stack] (via {!Chorus_net.Stack.serve_async}, so the port channel
    and dedup cache live on the stack).  Returns the server handle. *)

val make : unit -> t
(** A server handle with no serving fiber yet — for supervised serving
    via {!starter}. *)

val starter : t -> catalog -> Chorus_net.Stack.t -> unit -> Chorus.Fiber.t
(** [starter t cat stack] is a {!Chorus_kernel.Supervisor.child_spec}
    start function: each call (re-)spawns the serving fiber on the
    same port, with counters and the stack-side dedup cache carrying
    over — the chaos supervised-restart path. *)

val requests : t -> int
(** Requests served (lists + reads), across restarts. *)

val handle : catalog -> string -> string
(** The bare request -> response function ([serve] plugs it into the
    stack) — exposed for unit tests. *)

val decode_entries :
  string -> (string * Chorus_fsspec.Fsspec.kind * int) list
(** Wire form of a directory listing (the ["L"] reply payload). *)
