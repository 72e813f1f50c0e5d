(* Per-run context: the typed-slot store that replaced the process
   globals (Inspect provider registry, Metrics.current,
   Runtime.default_trace, Svc.crashpoint).  Two layers:

   - Every domain owns an *ambient* context (lazily created, initially
     empty).  Code that runs outside any engine — test harnesses
     installing a metrics registry before [Runtime.run], the profiler
     installing a trace factory — binds slots there.

   - Every engine owns its own context.  While an engine is stepping
     events ([Engine.step_until]) its context is *active* on the
     stepping domain, so the same [set]/[get] calls made from inside a
     run bind and read per-engine state.  [Engine.start] adopts the
     ambient bindings into the engine context (install-then-run keeps
     working), after which the two never alias.

   A context is only ever touched by the domain currently stepping its
   engine (or, for ambient, by its owning domain), so plain mutable
   state needs no locking; domain-safety comes from the DLS keying, not
   from atomics. *)

type binding = int * exn
(* [exn] as the universal type: each slot carries a locally-defined
   exception constructor, so [inj]/[proj] are total for that slot and
   reject every other slot's values.  Bindings are an assoc list keyed
   by slot uid — a handful of entries per run, so linear scan wins. *)

type 'a slot = {
  uid : int;
  sname : string;
  inj : 'a -> exn;
  proj : exn -> 'a option;
}

let next_uid = Atomic.make 0

let slot (type a) sname : a slot =
  let module M = struct
    exception E of a
  end in
  { uid = Atomic.fetch_and_add next_uid 1;
    sname;
    inj = (fun v -> M.E v);
    proj = (function M.E v -> Some v | _ -> None) }

type t = { mutable bindings : binding list }

let create () = { bindings = [] }

(* ------------------------------------------------------------------ *)
(* Explicit (context-passing) operations                               *)

let set_in ctx s v =
  ctx.bindings <-
    (s.uid, s.inj v) :: List.filter (fun (u, _) -> u <> s.uid) ctx.bindings

let clear_in ctx s =
  ctx.bindings <- List.filter (fun (u, _) -> u <> s.uid) ctx.bindings

let get_in ctx s =
  match List.assoc_opt s.uid ctx.bindings with
  | None -> None
  | Some e -> s.proj e

(* ------------------------------------------------------------------ *)
(* Ambient / active resolution                                         *)

let ambient_key : t Domain.DLS.key = Domain.DLS.new_key create

let active_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let ambient () = Domain.DLS.get ambient_key

let resolve () =
  match !(Domain.DLS.get active_key) with
  | Some ctx -> ctx
  | None -> ambient ()

let activate ctx =
  let cell = Domain.DLS.get active_key in
  let prev = !cell in
  cell := ctx;
  prev

let active () = !(Domain.DLS.get active_key)

let set s v = set_in (resolve ()) s v

let clear s = clear_in (resolve ()) s

let get s = get_in (resolve ()) s

(* Adoption: copy every ambient binding the context does not already
   hold.  Called once per engine at [Engine.start], so the
   install-before-run idiom (metrics registry, default trace factory,
   crash points armed between [create] and [start]) lands inside the
   run without the run ever writing back to the domain's ambient
   state. *)
let adopt_ambient ctx =
  let amb = ambient () in
  List.iter
    (fun (u, e) ->
      if not (List.mem_assoc u ctx.bindings) then
        ctx.bindings <- (u, e) :: ctx.bindings)
    (List.rev amb.bindings)

(* Worker bracket: run [f] with a fresh ambient context and no active
   engine context, restoring both afterwards.  The domain pool wraps
   the participating caller domain with this so every worker — spawned
   or caller — starts from the same (empty) ambient state. *)
let with_clean_ambient f =
  let prev_amb = Domain.DLS.get ambient_key in
  let prev_active = activate None in
  Domain.DLS.set ambient_key (create ());
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set ambient_key prev_amb;
      ignore (activate prev_active))
    f
