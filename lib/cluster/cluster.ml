module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack
module Supervisor = Chorus_kernel.Supervisor
module Metrics = Chorus_obs.Metrics

let client_port = 7000

let raft_port = 7100

type node = {
  addr : int;
  stack : Stack.t;
  rafts : (int * Raft.t) list;  (* shard -> replica, ascending shards *)
  mutable incarnation : int;
  mutable root : Fiber.t option;
  mutable subs : Fiber.t list;  (* current incarnation's fibers *)
  mutable up : bool;
  mutable inflight : int;  (* proposals parked in worker fibers *)
  depth_g : Metrics.gauge;
}

type t = {
  map : Shardmap.t;
  map_wire : string;  (* "m" ^ encoding, served on 'M' *)
  nodes : node array;
  mutable sup : Supervisor.t option;
  mutable elections : int;
  mutable leader_changes : int;
  mutable crashes : int;
}

let on_raft_event t (ev : Raft.event) =
  match ev with
  | Raft.Election_started _ -> t.elections <- t.elections + 1
  | Raft.Leader_won _ -> t.leader_changes <- t.leader_changes + 1
  | Raft.Stepped_down _ -> ()

let create ?raft ~nshards ~replication ~seed ~nnodes fabric =
  if nnodes <= 0 then invalid_arg "Cluster.create: nnodes";
  let rcfg =
    match raft with Some c -> c | None -> Raft.default_config ~seed
  in
  let nics =
    Array.init nnodes (fun i ->
        Fabric.attach fabric ~label:(Printf.sprintf "node%d" i) ())
  in
  let addrs = Array.to_list (Array.map Fabric.addr nics) in
  let map = Shardmap.build ~nshards ~replication addrs in
  (* tie the knot: raft event callbacks need the cluster record *)
  let t_ref = ref None in
  let on_event ev =
    match !t_ref with None -> () | Some t -> on_raft_event t ev
  in
  let nodes =
    Array.map
      (fun nic ->
        let addr = Fabric.addr nic in
        let stack = Stack.create fabric nic in
        let rafts =
          List.map
            (fun shard ->
              let peers =
                Shardmap.replicas map shard
                |> Array.to_list
                |> List.filter (fun a -> a <> addr)
                |> Array.of_list
              in
              (shard, Raft.create rcfg ~stack ~raft_port ~shard ~peers ~on_event))
            (Shardmap.shards_of_node map addr)
        in
        { addr;
          stack;
          rafts;
          incarnation = 0;
          root = None;
          subs = [];
          up = false;
          inflight = 0;
          depth_g =
            Metrics.gauge ~subsystem:"cluster"
              (Printf.sprintf "node%d.inflight" addr) })
      nics
  in
  let t =
    { map;
      map_wire = "m" ^ Shardmap.encode map;
      nodes;
      sup = None;
      elections = 0;
      leader_changes = 0;
      crashes = 0 }
  in
  t_ref := Some t;
  (* Snapshot hooks: one provider per node walking its replicas.  The
     raft state machines survive node restarts (log and term model
     stable storage), so these thunks stay valid across crash cycles. *)
  Array.iter
    (fun node ->
      Chorus.Inspect.register
        ~name:(Printf.sprintf "cluster/node%d" node.addr)
        (fun () ->
          let open Chorus.Inspect in
          Assoc
            [ ("up", Bool node.up);
              ("incarnation", Int node.incarnation);
              ("inflight", Int node.inflight);
              ("shards",
               List
                 (List.map
                    (fun (shard, r) ->
                      Assoc
                        [ ("shard", Int shard);
                          ("role",
                           String
                             (match Raft.role r with
                             | Raft.Follower -> "follower"
                             | Raft.Candidate -> "candidate"
                             | Raft.Leader -> "leader"));
                          ("term", Int (Raft.term r));
                          ("commit_index", Int (Raft.commit_index r));
                          ("log_length", Int (Raft.log_length r));
                          ("applied", Int (Raft.applied r));
                          ("leader_hint", Int (Raft.leader_hint r));
                          ("group_commits", Int (Raft.group_commits r));
                          ("leased_reads", Int (Raft.leased_reads r));
                          ("lease_valid", Bool (Raft.lease_valid r)) ])
                    node.rafts)) ]))
    t.nodes;
  Chorus.Inspect.register ~name:"cluster/summary" (fun () ->
      let open Chorus.Inspect in
      Assoc
        [ ("elections_started", Int t.elections);
          ("leader_changes", Int t.leader_changes);
          ("node_crashes", Int t.crashes);
          ("nodes_up",
           Int
             (Array.fold_left
                (fun acc n -> if n.up then acc + 1 else acc)
                0 t.nodes)) ]);
  t

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

let parse_cmd payload =
  match payload.[0] with
  | 'P' ->
    let r = Wire.reader ~pos:1 payload in
    let k = Wire.str_ r in
    let v = Wire.str_ r in
    Some (k, Raft.Put (k, v))
  | 'G' ->
    let r = Wire.reader ~pos:1 payload in
    let k = Wire.str_ r in
    Some (k, Raft.Get k)
  | _ -> None
  | exception _ -> None

let track_inflight node d =
  node.inflight <- node.inflight + d;
  Metrics.observe node.depth_g node.inflight

(* The quorum path: hand the command to a registered worker fiber that
   blocks in [Raft.propose] until commit+apply (or timeout). *)
let propose_path node ~register shard r cmd ~reply =
  track_inflight node 1;
  register
    (Fiber.spawn
       ~label:(Printf.sprintf "prop-n%d-s%d" node.addr shard)
       ~daemon:true
       (fun () ->
         let answer =
           match Raft.propose r cmd with
           | `Ok payload -> payload
           | `Not_leader h -> Printf.sprintf "L%d" h
           | `Retry -> "R"
         in
         track_inflight node (-1);
         reply answer))

(* Runs in the client-port serve fiber: must not block.  Leader ops are
   handed to a registered worker fiber; everything else answers
   inline. *)
let handle_client t node ~register ~src:_ payload ~reply =
  if payload = "M" then reply t.map_wire
  else
    match parse_cmd payload with
    | None -> reply "X"
    | Some (key, cmd) -> (
      let shard = Shardmap.shard_of_key t.map key in
      match List.assoc_opt shard node.rafts with
      | None -> reply "X"  (* not a replica: client's map is stale *)
      | Some r ->
        if Raft.role r <> Raft.Leader then
          reply (Printf.sprintf "L%d" (Raft.leader_hint r))
        else begin
          (* leased read fast path: a Get under a valid leader lease is
             answered from the local store right here in the serve
             fiber — no log entry, no replication round, no worker
             fiber.  [read_local] never blocks (it only charges one
             apply's worth of work) and answers [`No_lease] whenever
             leases are off, so the propose path below is untouched by
             default. *)
          match cmd with
          | Raft.Get key' -> (
            match Raft.read_local r key' with
            | `Value (Some v) -> reply ("F" ^ v)
            | `Value None -> reply "M"
            | `No_lease -> propose_path node ~register shard r cmd ~reply)
          | Raft.Put _ | Raft.Nop ->
            propose_path node ~register shard r cmd ~reply
        end)

let handle_raft node ~src payload ~reply =
  match
    let op = payload.[0] in
    let r = Wire.reader ~pos:1 payload in
    let shard = Wire.int_ r in
    (op, shard, r)
  with
  | exception _ -> reply "X"
  | op, shard, r -> (
    match List.assoc_opt shard node.rafts with
    | None -> reply "X"
    | Some raft -> (
      match Raft.handle_rpc raft ~src ~op r with
      | answer -> reply answer
      | exception Wire.Malformed -> reply "X"))

(* ------------------------------------------------------------------ *)
(* Node lifecycle                                                      *)

let start_node t ni =
  let node = t.nodes.(ni) in
  node.incarnation <- node.incarnation + 1;
  let inc = node.incarnation in
  (* crash recovery: volatile raft state is gone, log/term survive *)
  List.iter (fun (_, r) -> Raft.reset_volatile r) node.rafts;
  node.subs <- [];
  node.inflight <- 0;
  let register f =
    if node.incarnation = inc then node.subs <- f :: node.subs
    else Fiber.kill f  (* spawned by a fiber leaked across a crash *)
  in
  (* A node's serve fibers share protocol state (raft replicas, the
     stack's dedup caches) with the rest of the node: one dying alone
     — a chaos crash point, an unhandled handler exception — leaves a
     half-alive node that answers on one port and is silent on the
     other.  Escalate: kill the root, so the supervisor restarts the
     node as a unit (One_for_all in miniature, scoped to the node). *)
  let escalate f =
    Fiber.monitor f (fun ~time:_ _st ->
        if node.incarnation = inc && node.up then
          match node.root with
          | Some r when Fiber.alive r -> Fiber.kill r
          | Some _ | None -> ())
  in
  let root =
    Fiber.spawn
      ~label:(Printf.sprintf "node%d" node.addr)
      ~daemon:true
      (fun () ->
        node.up <- true;
        let raft_srv =
          Fiber.spawn
            ~label:(Printf.sprintf "raft-srv-%d" node.addr)
            ~daemon:true
            (fun () ->
              Stack.serve_async node.stack ~port:raft_port (handle_raft node))
        in
        register raft_srv;
        escalate raft_srv;
        let kv_srv =
          Fiber.spawn
            ~label:(Printf.sprintf "kv-srv-%d" node.addr)
            ~daemon:true
            (fun () ->
              Stack.serve_async node.stack ~port:client_port
                (handle_client t node ~register))
        in
        register kv_srv;
        escalate kv_srv;
        List.iter
          (fun (_, r) -> register (Raft.start_timer r ~register))
          node.rafts;
        (* park forever: this fiber is the node's kill target *)
        Chan.recv (Chan.rendezvous ~label:"park" ()))
  in
  (* the cluster's own monitor coexists with the supervisor's: it is
     the failure detector's control-plane half, reaping the dead
     incarnation *)
  node.root <- Some root;
  Fiber.monitor root (fun ~time:_ _st ->
      if node.incarnation = inc then begin
        node.up <- false;
        t.crashes <- t.crashes + 1;
        let doomed = node.subs in
        node.subs <- [];
        List.iter (fun (_, r) -> Raft.reset_volatile r) node.rafts;
        List.iter (fun f -> if Fiber.alive f then Fiber.kill f) doomed
      end);
  root

let start t =
  match t.sup with
  | Some _ -> invalid_arg "Cluster.start: already started"
  | None ->
    let specs =
      Array.to_list
        (Array.mapi
           (fun i n ->
             { Supervisor.cname = Printf.sprintf "node%d" n.addr;
               cstart = (fun () -> start_node t i) })
           t.nodes)
    in
    t.sup <-
      Some
        (Supervisor.start ~max_restarts:100 ~window:50_000_000 One_for_one
           specs)

let stop t =
  (match t.sup with Some s -> Supervisor.stop s | None -> ());
  Array.iter
    (fun n ->
      let doomed = n.subs in
      n.subs <- [];
      n.incarnation <- n.incarnation + 1;
      n.up <- false;
      List.iter (fun f -> if Fiber.alive f then Fiber.kill f) doomed)
    t.nodes

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let map t = t.map

let addrs t = Shardmap.nodes t.map

let node_by_addr t addr =
  let found = ref None in
  Array.iter (fun n -> if n.addr = addr then found := Some n) t.nodes;
  !found

let node_up t addr =
  match node_by_addr t addr with Some n -> n.up | None -> false

let crash_node t addr =
  match node_by_addr t addr with
  | None -> invalid_arg "Cluster.crash_node: unknown address"
  | Some node -> (
    match node.root with
    | Some f when Fiber.alive f ->
      (* down from now, not from when the monitor runs *)
      node.up <- false;
      Fiber.kill f
    | Some _ | None -> ())

let leader_of t shard =
  let leader = ref (-1) in
  Array.iter
    (fun n ->
      if n.up then
        match List.assoc_opt shard n.rafts with
        | Some r when Raft.role r = Raft.Leader -> leader := n.addr
        | Some _ | None -> ())
    t.nodes;
  !leader

let elections_started t = t.elections

let leader_changes t = t.leader_changes

let node_crashes t = t.crashes

let restarts t = match t.sup with Some s -> Supervisor.restarts s | None -> 0

let raft_of t ~node ~shard =
  match node_by_addr t node with
  | None -> None
  | Some n -> List.assoc_opt shard n.rafts
