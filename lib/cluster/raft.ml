module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Stack = Chorus_net.Stack
module Rng = Chorus_util.Rng
module Metrics = Chorus_obs.Metrics
module Span = Chorus_obs.Span
module Svc = Chorus_svc.Svc

type config = {
  rpc_timeout : int;
  propose_timeout : int;
  batch_window : int;
  max_append : int;
  lease : bool;
  seed : int;
}

let default_config ~seed =
  { rpc_timeout = 30_000;
    propose_timeout = 200_000;
    batch_window = 0;
    max_append = 16;
    lease = false;
    seed }

(* Timing constants, in cycles: the leader's append/heartbeat interval,
   the election timeout range [election_lo, election_hi), and the
   safety slack subtracted from a leader lease. *)
let heartbeat = 25_000

let election_lo = 120_000

let election_hi = 240_000

let lease_margin = 10_000

type role = Follower | Candidate | Leader

type cmd = Nop | Put of string * string | Get of string

type event =
  | Election_started of { shard : int; node : int; term : int }
  | Leader_won of { shard : int; node : int; term : int }
  | Stepped_down of { shard : int; node : int; term : int }

type entry = { eterm : int; cmd : cmd }

type wait_result = [ `Applied of string | `Lost ]

type t = {
  cfg : config;
  shard : int;
  self : int;
  peers : int array;
  stack : Stack.t;
  raft_port : int;
  rng : Rng.t;
  on_event : event -> unit;
  (* persistent ("stable storage") *)
  mutable term : int;
  mutable voted_for : int option;
  mutable log : entry array;
  mutable log_len : int;
  store : (string, string) Hashtbl.t;
  mutable commit_idx : int;
  mutable applied : int;
  (* volatile *)
  mutable role : role;
  mutable leader_hint : int;
  mutable last_heartbeat : int;
  next_idx : int array;  (* per peer position *)
  match_idx : int array;
  mutable kicks : wait_result Svc.cast list;
      (* one per replicator fiber; pinged on new proposals.  Each is a
         capacity-1 `Reject endpoint: a kick that finds the slot full
         is redundant by construction and is dropped, exactly the old
         try_send-on-buffered-1 behaviour, but now visible in the
         uniform rejected counter. *)
  mutable batch_kick : unit Svc.cast option;
      (* the group-commit batcher's doorbell; Some only while a leader
         with batch_window > 0 has its batcher fiber up *)
  mutable batch_pending : int;
      (* proposals appended since the last replicator flush *)
  lease_acked : int array;
      (* per peer: virtual send-time of the latest append that peer
         acknowledged, -1 before the first ack of this leadership.
         The (majority-1)-th largest of these anchors the lease. *)
  mutable term_start : int;
      (* index of this term's pinning Nop; leased reads need
         commit_idx >= term_start (current-term commitment) *)
  waiters : (int, int * wait_result Chan.t) Hashtbl.t;
      (* log index -> (expected term, reply channel) *)
  mutable lineage : int;
      (* bumped by reset_volatile; fibers of older lineages exit *)
  (* stats *)
  mutable won : int;
  mutable appends : int;
  mutable group_commits : int;
  mutable leased_reads : int;
  mutable lease_denied : int;
  propose_h : Metrics.histogram;
}

let create cfg ~stack ~raft_port ~shard ~peers ~on_event =
  let self = Stack.addr stack in
  { cfg;
    shard;
    self;
    peers;
    stack;
    raft_port;
    rng = Rng.make (cfg.seed lxor Shardmap.hash64 (Printf.sprintf "raft:%d:%d" self shard));
    on_event;
    term = 0;
    voted_for = None;
    log = Array.make 16 { eterm = 0; cmd = Nop };
    log_len = 0;
    store = Hashtbl.create 64;
    commit_idx = 0;
    applied = 0;
    role = Follower;
    leader_hint = -1;
    last_heartbeat = Fiber.now ();
    next_idx = Array.map (fun _ -> 1) peers;
    match_idx = Array.map (fun _ -> 0) peers;
    kicks = [];
    batch_kick = None;
    batch_pending = 0;
    lease_acked = Array.map (fun _ -> -1) peers;
    term_start = 0;
    waiters = Hashtbl.create 8;
    lineage = 0;
    won = 0;
    appends = 0;
    group_commits = 0;
    leased_reads = 0;
    lease_denied = 0;
    propose_h =
      Metrics.histogram ~subsystem:"cluster"
        (Printf.sprintf "shard%d.propose" shard) }

let role t = t.role

let term t = t.term

let leader_hint t = t.leader_hint

let commit_index t = t.commit_idx

let log_length t = t.log_len


let appends_sent t = t.appends

let applied t = t.applied

let group_commits t = t.group_commits

let leased_reads t = t.leased_reads

let lease_denied t = t.lease_denied

(* 1-based log access *)
let entry t i = t.log.(i - 1)

let last_log_term t = if t.log_len = 0 then 0 else (entry t t.log_len).eterm

let append_entry t e =
  if t.log_len = Array.length t.log then begin
    let bigger = Array.make (2 * t.log_len) { eterm = 0; cmd = Nop } in
    Array.blit t.log 0 bigger 0 t.log_len;
    t.log <- bigger
  end;
  t.log.(t.log_len) <- e;
  t.log_len <- t.log_len + 1

let majority t = ((Array.length t.peers + 1) / 2) + 1

(* ------------------------------------------------------------------ *)
(* Role transitions                                                    *)

let step_down t new_term =
  if new_term > t.term then begin
    t.term <- new_term;
    t.voted_for <- None
  end;
  if t.role <> Follower then begin
    t.role <- Follower;
    t.kicks <- [];
    t.batch_kick <- None;
    t.on_event (Stepped_down { shard = t.shard; node = t.self; term = t.term })
  end;
  t.last_heartbeat <- Fiber.now ()

let reset_volatile t =
  t.lineage <- t.lineage + 1;
  t.role <- Follower;
  t.leader_hint <- -1;
  t.kicks <- [];
  t.batch_kick <- None;
  t.batch_pending <- 0;
  Array.fill t.lease_acked 0 (Array.length t.lease_acked) (-1);
  Hashtbl.reset t.waiters;
  t.last_heartbeat <- Fiber.now ()

(* ------------------------------------------------------------------ *)
(* Apply and commit                                                    *)

let apply_cmd t = function
  | Nop -> "A"
  | Put (k, v) ->
    Hashtbl.replace t.store k v;
    "A"
  | Get k -> (
    match Hashtbl.find_opt t.store k with
    | Some v -> "F" ^ v
    | None -> "M")

let apply t =
  while t.applied < t.commit_idx do
    let idx = t.applied + 1 in
    let e = entry t idx in
    Fiber.work 120;
    let result = apply_cmd t e.cmd in
    t.applied <- idx;
    match Hashtbl.find_opt t.waiters idx with
    | None -> ()
    | Some (expected_term, ch) ->
      Hashtbl.remove t.waiters idx;
      (* a different entry can occupy the index after a truncation;
         answer the waiter only when it is literally its own command *)
      let answer : wait_result =
        if e.eterm = expected_term then `Applied result else `Lost
      in
      ignore (Chan.try_send ch answer)
  done

(* leader: advance commit_idx to the highest current-term index a
   majority holds (Raft's commitment rule: only entries of the current
   term commit by counting; earlier ones ride along) *)
let maybe_commit t =
  if t.role = Leader then begin
    let n = ref t.log_len in
    let committed = ref false in
    while (not !committed) && !n > t.commit_idx do
      if (entry t !n).eterm = t.term then begin
        let acks =
          1
          + Array.fold_left
              (fun acc m -> if m >= !n then acc + 1 else acc)
              0 t.match_idx
        in
        if acks >= majority t then begin
          t.commit_idx <- !n;
          committed := true
        end
      end;
      decr n
    done;
    if !committed then apply t
  end

(* ------------------------------------------------------------------ *)
(* Leader lease (read path)                                            *)

(* The lease anchors at the (majority-1)-th most recent send-time among
   peer-acknowledged appends: at that instant a majority (those peers
   plus the leader itself) had heard from this leader.  Under virtual
   time there is no clock skew, and every follower that processed an
   append at t_recv >= t_send both reset its election timer and — in
   lease mode — refuses to grant votes for election_lo cycles after
   t_recv.  So no competing leader can be elected by any majority
   before anchor + election_lo; serving local reads until
   anchor + election_lo - lease_margin leaves lease_margin cycles of
   slack for the read itself.  (See DESIGN D13.) *)
let lease_deadline t =
  let need = majority t - 1 in
  if need = 0 then max_int  (* single-replica group: always leased *)
  else begin
    let sorted = Array.copy t.lease_acked in
    Array.sort (fun a b -> compare (b : int) a) sorted;
    let anchor = sorted.(need - 1) in
    if anchor < 0 then min_int
    else anchor + election_lo - lease_margin
  end

let lease_valid t =
  t.cfg.lease && t.role = Leader
  && t.commit_idx >= t.term_start
  && Fiber.now () < lease_deadline t

let read_local t key =
  if not (t.cfg.lease && t.role = Leader) then `No_lease
  else begin
    (* the read is charged like one applied Get; re-check the lease at
       completion time so the value returned is covered by it *)
    Fiber.work 120;
    if lease_valid t then begin
      t.leased_reads <- t.leased_reads + 1;
      `Value (Hashtbl.find_opt t.store key)
    end
    else begin
      t.lease_denied <- t.lease_denied + 1;
      `No_lease
    end
  end

(* ------------------------------------------------------------------ *)
(* Wire encoding                                                       *)

let encode_vote_req t =
  let b = Buffer.create 32 in
  Buffer.add_char b 'V';
  Wire.enc_int b t.shard;
  Wire.enc_int b t.term;
  Wire.enc_int b t.self;
  Wire.enc_int b t.log_len;
  Wire.enc_int b (last_log_term t);
  Buffer.contents b

let encode_vote_reply ~term ~granted =
  let b = Buffer.create 16 in
  Buffer.add_char b 'v';
  Wire.enc_int b term;
  Wire.enc_int b (if granted then 1 else 0);
  Buffer.contents b

let encode_append t ~prev ~prev_term ~entries =
  let b = Buffer.create 64 in
  Buffer.add_char b 'E';
  Wire.enc_int b t.shard;
  Wire.enc_int b t.term;
  Wire.enc_int b t.self;
  Wire.enc_int b prev;
  Wire.enc_int b prev_term;
  Wire.enc_int b t.commit_idx;
  Wire.enc_int b (List.length entries);
  List.iter
    (fun e ->
      Wire.enc_int b e.eterm;
      match e.cmd with
      | Nop -> Wire.enc_int b 0
      | Put (k, v) ->
        Wire.enc_int b 1;
        Wire.enc_str b k;
        Wire.enc_str b v
      | Get k ->
        Wire.enc_int b 2;
        Wire.enc_str b k)
    entries;
  Buffer.contents b

let encode_append_reply ~term ~success ~match_idx =
  let b = Buffer.create 16 in
  Buffer.add_char b 'e';
  Wire.enc_int b term;
  Wire.enc_int b (if success then 1 else 0);
  Wire.enc_int b match_idx;
  Buffer.contents b

let decode_entry r =
  let eterm = Wire.int_ r in
  let cmd =
    match Wire.int_ r with
    | 0 -> Nop
    | 1 ->
      let k = Wire.str_ r in
      let v = Wire.str_ r in
      Put (k, v)
    | 2 -> Get (Wire.str_ r)
    | _ -> raise Wire.Malformed
  in
  { eterm; cmd }

(* ------------------------------------------------------------------ *)
(* RPC handlers (run inline in the raft-port serve fiber; no blocking) *)

let handle_vote t r =
  let cterm = Wire.int_ r in
  let cand = Wire.int_ r in
  let c_last_idx = Wire.int_ r in
  let c_last_term = Wire.int_ r in
  Fiber.work 80;
  (* Lease guard (thesis §6.4.1 flavour): while leases are on, a
     follower that heard from a live leader within the minimum election
     timeout refuses to vote — this is what makes the leader's lease
     arithmetic sound.  Captured before step_down, which resets the
     heartbeat clock. *)
  let lease_guard =
    t.cfg.lease && t.role = Follower
    && Fiber.now () - t.last_heartbeat < election_lo
  in
  if cterm > t.term then step_down t cterm;
  let up_to_date =
    c_last_term > last_log_term t
    || (c_last_term = last_log_term t && c_last_idx >= t.log_len)
  in
  let granted =
    cterm = t.term && up_to_date && (not lease_guard)
    && (match t.voted_for with None -> true | Some c -> c = cand)
  in
  if granted then begin
    t.voted_for <- Some cand;
    (* granting a vote is a sign of a live election: restart our own
       timeout so we do not pile a competing candidacy on top *)
    t.last_heartbeat <- Fiber.now ()
  end;
  encode_vote_reply ~term:t.term ~granted

let handle_append t ~src:_ r =
  let aterm = Wire.int_ r in
  let leader = Wire.int_ r in
  let prev = Wire.int_ r in
  let prev_term = Wire.int_ r in
  let leader_commit = Wire.int_ r in
  let n = Wire.int_ r in
  let entries = List.init n (fun _ -> decode_entry r) in
  Fiber.work (100 + (20 * n));
  if aterm < t.term then
    encode_append_reply ~term:t.term ~success:false ~match_idx:0
  else begin
    if aterm > t.term || t.role <> Follower then step_down t aterm;
    t.leader_hint <- leader;
    t.last_heartbeat <- Fiber.now ();
    if prev > t.log_len || (prev > 0 && (entry t prev).eterm <> prev_term)
    then
      (* log mismatch: the leader will back its next_idx down *)
      encode_append_reply ~term:t.term ~success:false ~match_idx:0
    else begin
      List.iteri
        (fun k e ->
          let idx = prev + k + 1 in
          if idx <= t.log_len then begin
            if (entry t idx).eterm <> e.eterm then begin
              t.log_len <- idx - 1;  (* truncate the conflicting suffix *)
              append_entry t e
            end
          end
          else append_entry t e)
        entries;
      let last_new = prev + n in
      if leader_commit > t.commit_idx then begin
        t.commit_idx <- max t.commit_idx (min leader_commit last_new);
        apply t
      end;
      encode_append_reply ~term:t.term ~success:true ~match_idx:last_new
    end
  end

let handle_rpc t ~src ~op r =
  match op with
  | 'V' -> handle_vote t r
  | 'E' -> handle_append t ~src r
  | _ -> raise Wire.Malformed

(* ------------------------------------------------------------------ *)
(* Leader side: replicator fibers                                      *)

let kick_replicators t =
  List.iter (fun k -> Svc.cast k (`Applied "")) t.kicks

let replicator t ~lineage ~my_term ~peer_pos =
  let peer = t.peers.(peer_pos) in
  let kick =
    Svc.cast_create
      ~config:(Svc.config ~capacity:1 ~policy:`Reject ())
      ~subsystem:"cluster" ~metric_name:"kick" ~label:"raft-kick" ()
  in
  t.kicks <- kick :: t.kicks;
  let live () =
    t.role = Leader && t.term = my_term && t.lineage = lineage
  in
  let rec loop () =
    if live () then begin
      let ni = t.next_idx.(peer_pos) in
      let until = min t.log_len (ni + t.cfg.max_append - 1) in
      let entries =
        if until < ni then []
        else List.init (until - ni + 1) (fun k -> entry t (ni + k))
      in
      let prev = ni - 1 in
      let prev_term = if prev = 0 then 0 else (entry t prev).eterm in
      t.appends <- t.appends + 1;
      let t_send = Fiber.now () in
      (match
         Stack.call t.stack ~dst:peer ~port:t.raft_port
           ~timeout:t.cfg.rpc_timeout ~attempts:1
           (encode_append t ~prev ~prev_term ~entries)
       with
      | None -> ()  (* lost or slow; next round retries *)
      | Some reply -> (
        match
          let r = Wire.reader ~pos:1 reply in
          if String.length reply = 0 || reply.[0] <> 'e' then
            raise Wire.Malformed;
          let rterm = Wire.int_ r in
          let success = Wire.int_ r = 1 in
          let m = Wire.int_ r in
          (rterm, success, m)
        with
        | exception Wire.Malformed -> ()
        | rterm, success, m ->
          if rterm > t.term then step_down t rterm
          else if live () then begin
            if success then begin
              (* the peer processed an append sent at t_send: it heard
                 from us no earlier than that, which is what the lease
                 order statistic needs (heartbeats renew too: an empty
                 append acks the same way) *)
              if t_send > t.lease_acked.(peer_pos) then
                t.lease_acked.(peer_pos) <- t_send;
              t.match_idx.(peer_pos) <- max t.match_idx.(peer_pos) m;
              t.next_idx.(peer_pos) <- t.match_idx.(peer_pos) + 1;
              maybe_commit t
            end
            else t.next_idx.(peer_pos) <- max 1 (t.next_idx.(peer_pos) - 1)
          end));
      (* pace: drain backlog immediately, otherwise idle until the next
         heartbeat or a fresh proposal kicks us *)
      if live () && t.next_idx.(peer_pos) > t.log_len then
        ignore
          (Chan.choose
             [ Svc.recv_case kick (fun _ -> ());
               Chan.after heartbeat (fun () -> ()) ]);
      loop ()
    end
  in
  loop ()

(* Group commit: flush the accumulated window to the replicators in
   one AppendEntries round per peer and try to commit.  Also the
   size-triggered fast path out of [propose]. *)
let flush_batch t =
  t.batch_pending <- 0;
  t.group_commits <- t.group_commits + 1;
  kick_replicators t;
  maybe_commit t

(* The group-commit batcher (leader only, batch_window > 0): proposals
   ring the doorbell; the batcher lets the window elapse so log
   neighbours accumulate, then flushes them as one replication round.
   The doorbell is the same capacity-1 `Reject endpoint the replicator
   kicks use: redundant rings during a window are coalesced (they show
   up in the rejected counter), so a thousand proposals in one window
   cost one flush. *)
let batcher t ~lineage ~my_term =
  let bell =
    Svc.cast_create
      ~config:(Svc.config ~capacity:1 ~policy:`Reject ())
      ~subsystem:"cluster" ~metric_name:"batch" ~label:"raft-batch" ()
  in
  t.batch_kick <- Some bell;
  let live () =
    t.role = Leader && t.term = my_term && t.lineage = lineage
  in
  let rec loop () =
    if live () then begin
      let rung =
        Chan.choose
          [ Svc.recv_case bell (fun () -> true);
            Chan.after heartbeat (fun () -> false) ]
      in
      if live () && rung then begin
        Fiber.sleep t.cfg.batch_window;
        (* rings that landed during the sleep belong to entries already
           in the log: this flush covers them (a leftover ring at worst
           buys one empty follow-up round) *)
        if live () then flush_batch t
      end;
      loop ()
    end
  in
  loop ()

let become_leader t ~register ~lineage =
  t.role <- Leader;
  t.leader_hint <- t.self;
  t.won <- t.won + 1;
  t.kicks <- [];
  t.batch_kick <- None;
  t.batch_pending <- 0;
  Array.fill t.lease_acked 0 (Array.length t.lease_acked) (-1);
  Array.iteri (fun i _ -> t.next_idx.(i) <- t.log_len + 1) t.next_idx;
  Array.iteri (fun i _ -> t.match_idx.(i) <- 0) t.match_idx;
  (* a fresh no-op pins the new term in the log so earlier entries can
     commit under the current-term counting rule *)
  append_entry t { eterm = t.term; cmd = Nop };
  t.term_start <- t.log_len;
  t.on_event (Leader_won { shard = t.shard; node = t.self; term = t.term });
  let my_term = t.term in
  Array.iteri
    (fun i _ ->
      register
        (Fiber.spawn
           ~label:
             (Printf.sprintf "raft-repl-s%d-n%d-p%d" t.shard t.self
                t.peers.(i))
           ~daemon:true
           (fun () -> replicator t ~lineage ~my_term ~peer_pos:i)))
    t.peers;
  if t.cfg.batch_window > 0 then
    register
      (Fiber.spawn
         ~label:(Printf.sprintf "raft-batch-s%d-n%d" t.shard t.self)
         ~daemon:true
         (fun () -> batcher t ~lineage ~my_term));
  maybe_commit t

(* ------------------------------------------------------------------ *)
(* Elections                                                           *)

let run_election t ~register ~lineage =
  t.role <- Candidate;
  t.term <- t.term + 1;
  t.voted_for <- Some t.self;
  t.last_heartbeat <- Fiber.now ();
  let my_term = t.term in
  t.on_event (Election_started { shard = t.shard; node = t.self; term = my_term });
  Span.with_ ~subsystem:"cluster" "election" @@ fun () ->
  let npeers = Array.length t.peers in
  if npeers = 0 then become_leader t ~register ~lineage
  else begin
    let votes = Chan.buffered (max 1 npeers) in
    let req = encode_vote_req t in
    Array.iteri
      (fun i peer ->
        register
          (Fiber.spawn
             ~label:(Printf.sprintf "raft-vote-s%d-n%d-p%d" t.shard t.self i)
             ~daemon:true
             (fun () ->
               let reply =
                 Stack.call t.stack ~dst:peer ~port:t.raft_port
                   ~timeout:t.cfg.rpc_timeout ~attempts:2 req
               in
               let parsed =
                 match reply with
                 | Some s when String.length s > 1 && s.[0] = 'v' -> (
                   match
                     let r = Wire.reader ~pos:1 s in
                     let rt = Wire.int_ r in
                     let g = Wire.int_ r = 1 in
                     (rt, g)
                   with
                   | v -> v
                   | exception Wire.Malformed -> (0, false))
                 | Some _ | None -> (0, false)
               in
               Chan.send votes parsed)))
      t.peers;
    let still_candidate () =
      t.role = Candidate && t.term = my_term && t.lineage = lineage
    in
    let granted = ref 1 (* own vote *) and heard = ref 0 in
    let rec collect () =
      if
        still_candidate ()
        && !granted < majority t
        && !heard < npeers
      then begin
        match
          Chan.choose
            [ Chan.recv_case votes (fun v -> Some v);
              Chan.after election_lo (fun () -> None) ]
        with
        | None -> ()  (* election timed out; the timer loop retries *)
        | Some (rterm, g) ->
          incr heard;
          if rterm > t.term then step_down t rterm
          else begin
            if g then incr granted;
            collect ()
          end
      end
    in
    collect ();
    if still_candidate () && !granted >= majority t then
      become_leader t ~register ~lineage
    else if still_candidate () then
      (* lost or split: drop back and let the randomized timer retry *)
      t.role <- Follower
  end

let start_timer t ~register =
  let lineage = t.lineage in
  Fiber.spawn
    ~label:(Printf.sprintf "raft-timer-s%d-n%d" t.shard t.self)
    ~daemon:true
    (fun () ->
      let rec loop () =
        if t.lineage = lineage then begin
          let span =
            election_lo + Rng.int t.rng (election_hi - election_lo)
          in
          Fiber.sleep span;
          if t.lineage = lineage then begin
            if
              t.role <> Leader
              && Fiber.now () - t.last_heartbeat >= span
            then run_election t ~register ~lineage;
            loop ()
          end
        end
      in
      loop ())

(* ------------------------------------------------------------------ *)
(* Client proposals (leader only; blocks, so run in a worker fiber)    *)

let propose t cmd =
  if t.role <> Leader then `Not_leader t.leader_hint
  else
    Span.timed ~subsystem:"cluster" ~name:"propose" t.propose_h @@ fun () ->
    let my_term = t.term in
    append_entry t { eterm = my_term; cmd };
    let idx = t.log_len in
    let ch = Chan.buffered 1 in
    Hashtbl.replace t.waiters idx (my_term, ch);
    if t.cfg.batch_window > 0 then begin
      (* group commit: park the entry in the window; a full window
         flushes immediately, otherwise the batcher's timer does *)
      t.batch_pending <- t.batch_pending + 1;
      if t.batch_pending >= t.cfg.max_append then flush_batch t
      else
        match t.batch_kick with
        | Some bell -> Svc.cast bell ()
        | None -> flush_batch t  (* batcher not up yet: don't stall *)
    end
    else begin
      kick_replicators t;
      maybe_commit t  (* a single-replica group commits synchronously *)
    end;
    let result =
      Chan.choose
        [ Chan.recv_case ch (fun (r : wait_result) -> (r :> [ wait_result | `Timeout ]));
          Chan.after t.cfg.propose_timeout (fun () -> `Timeout) ]
    in
    (match Hashtbl.find_opt t.waiters idx with
    | Some (_, c) when c == ch -> Hashtbl.remove t.waiters idx
    | Some _ | None -> ());
    match result with
    | `Applied payload -> `Ok payload
    | `Lost | `Timeout -> `Retry
