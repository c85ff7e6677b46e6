type store_config = {
  policy : Store.Policy.t;
  snapshot_every : int;
  ack_before_fsync : bool;
}

let default_store_config =
  { policy = Store.Policy.none; snapshot_every = 4; ack_before_fsync = false }

type ('op, 'st, 'out) machine = {
  fresh : unit -> 'st;
  apply : 'st -> 'op -> 'st * 'out;
  snapshot : 'st -> string;
  restore : string -> 'st;
  op_to_string : 'op -> string;
  op_of_string : string -> 'op;
  digest : 'st -> string;
}

(* One replica's half of the TO-broadcast reduction: the commands it
   knows but has not ordered, the commands it has applied, its slot
   counter, and its loop. *)
type 'op replica = {
  pending : (int, 'op Wal.entry) Hashtbl.t;  (* cid -> entry, not yet ordered *)
  delivered : (int, unit) Hashtbl.t;
  mutable next_slot : int;
  wake : Dsim.Engine.queue;  (* signalled when [pending] or [stopped] changes *)
  mutable process : Dsim.Engine.pid;
}

(* One slot of the group's log, [CS[sn]] of the TO-broadcast reduction:
   who opened it, the proposals in registration order, and once decided
   the winner and its batch. *)
type 'op slot = {
  opener : int;
  mutable proposals : (int * 'op Wal.entry list) list;
  mutable decision : (int * 'op Wal.entry list) option;
}

(* The best durable snapshot a replica has advertised for state
   transfer: [owner] donates the state of slots up to [upto]. *)
type floor = { owner : int; upto : int; state : string; cids : int list }

type ('op, 'st, 'out) t = {
  engine : Dsim.Engine.t;
  label : string;
  n : int;
  batch : int;
  m : ('op, 'st, 'out) machine;
  net : 'op Wal.entry Netsim.Async_net.t;
  policy_ref :
    ('op Wal.entry Netsim.Async_net.envelope -> Netsim.Async_net.policy_verdict)
    ref;
  backend : Backend.t;
  seed : int64;
  (* the log: the slots live peers collectively remember *)
  log : (int, 'op slot) Hashtbl.t;
  changed : Dsim.Engine.queue;  (* signalled on every slot or floor change *)
  mutable floor : floor option;
  mutable slots : int;  (* decided by a decider, not reseeded *)
  mutable instances : int;
  replicas : 'op replica array;
  states : 'st array;
  checker : Checker.t;
  mutable stopped : bool;
  (* stable storage ([disks] is empty without a store) *)
  store_on : bool;
  scfg : store_config;
  store_policy_ref : Store.Policy.t ref;
  disks : Store.Disk.t array;
  durable : (int, unit) Hashtbl.t;
  awaiting : int list array;  (* cids in the WAL, not yet known durable *)
  last_seq : int array;
  nonempty_slots : int array;
  (* completion *)
  first_output : (int, 'out) Hashtbl.t;
  on_first_apply : 'op -> 'out -> unit;
  on_ready : cid:int -> unit;
  mutable crashed : int list;
  mutable restarted : int list;
}

let is_crashed t r = Netsim.Async_net.is_crashed t.net r
let live t = List.filter (fun p -> not (is_crashed t p)) (List.init t.n Fun.id)

let emit t line =
  Dsim.Engine.emitk t.engine ~tag:"rsm" (fun () ->
      if t.label = "" then line () else t.label ^ " " ^ line ())

(* --- the log --- *)

(* The quorum gate over the group's network: with the network whole
   every live replica counts; under a cut only the side holding a strict
   majority of the live replicas may decide, and with no such side every
   slot stalls until heal. *)
let majority_view t =
  match Netsim.Async_net.partition_groups t.net with
  | None -> Some (live t)
  | Some groups ->
      let lv = live t in
      let best =
        List.fold_left
          (fun best g ->
            let lg = List.filter (fun p -> List.mem p g) lv in
            match best with
            | Some b when List.length b >= List.length lg -> best
            | _ -> Some lg)
          None groups
      in
      (match best with
      | Some b when 2 * List.length b > List.length lv -> Some b
      | _ -> None)

(* A slot's decider: once every member the quorum gate names has
   proposed, reduce the proposals to one winner, hold the slot for the
   virtual time the backend's instances took, and publish it.  The slot
   lines carry no shard label. *)
let decider t slot s ctx =
  Dsim.Engine.await_any [ t.changed; Netsim.Async_net.topology t.net ] (fun () ->
      match majority_view t with
      | Some members
        when List.for_all (fun p -> List.mem_assoc p s.proposals) members ->
          Some ()
      | _ -> None);
  let winner, instances, duration =
    Backend.decide_slot t.backend ~seed:t.seed ~slot ~opener:s.opener s.proposals
  in
  if duration > 0 then Dsim.Engine.sleep ctx duration;
  let batch = List.assoc winner s.proposals in
  s.decision <- Some (winner, batch);
  Dsim.Engine.signal t.changed;
  t.slots <- t.slots + 1;
  t.instances <- t.instances + instances;
  Dsim.Engine.emitk t.engine ~tag:"rsm" (fun () ->
      Printf.sprintf "slot %d <- proposer %d (%d cmds, %d %s instances, %d vt)" slot
        winner (List.length batch) instances (Backend.name t.backend) duration)

(* Register [pid]'s proposal for [slot].  The first proposal opens the
   slot (its sender becomes the opener) and spawns the slot's decider; a
   repeat is ignored. *)
let propose t ~slot ~pid ~batch =
  let s =
    match Hashtbl.find_opt t.log slot with
    | Some s -> s
    | None ->
        let s = { opener = pid; proposals = []; decision = None } in
        Hashtbl.replace t.log slot s;
        ignore
          (Dsim.Engine.spawn t.engine
             ~name:(fun () -> Printf.sprintf "rsm-slot-%d" slot)
             (decider t slot s)
            : Dsim.Engine.pid);
        s
  in
  if not (List.mem_assoc pid s.proposals) then begin
    s.proposals <- s.proposals @ [ (pid, batch) ];
    Dsim.Engine.signal t.changed
  end

let decided t ~slot =
  match Hashtbl.find_opt t.log slot with Some s -> s.decision | None -> None

(* Advertise a durable snapshot for state transfer, if it covers more
   than the current floor. *)
let set_floor t ~owner ~upto ~state ~cids =
  match t.floor with
  | Some f when f.upto >= upto -> ()
  | _ ->
      t.floor <- Some { owner; upto; state; cids };
      Dsim.Engine.signal t.changed

(* An honest server acks only after the command is durable somewhere;
   [ack_before_fsync] is the deliberately broken mode the durability
   audit exists to catch. *)
let acks_wait_for_disk t = t.store_on && not t.scfg.ack_before_fsync

(* [on_ready] fires where the ack rule first holds: at the first
   application when acks do not wait for the disk, else where the
   command first becomes durable — always after some replica applied
   it, since only applied commands are written to the WAL. *)
let mark_durable t cids =
  List.iter
    (fun cid ->
      if not (Hashtbl.mem t.durable cid) then begin
        Hashtbl.replace t.durable cid ();
        if acks_wait_for_disk t then t.on_ready ~cid
      end)
    cids

(* --- the WAL write path --- *)

let retry_delay = 17

(* Try to fsync everything unsynced on [pid]'s disk; on a visible IO
   error, keep retrying after the window — a real WAL would not drop a
   committed batch on EIO either. *)
let rec flush t pid epoch0 () =
  let disk = t.disks.(pid) in
  if Store.Disk.epoch disk = epoch0 && not (is_crashed t pid) then begin
    let batch = t.awaiting.(pid) in
    match Store.Disk.fsync disk ~k:(fun () -> mark_durable t batch) with
    | Ok () -> t.awaiting.(pid) <- []
    | Error `Io_error ->
        Dsim.Engine.schedule t.engine ~delay:retry_delay (flush t pid epoch0)
  end

(* Write one finished slot to the WAL: fresh entries, then the commit
   marker, then fsync.  All appends in one attempt happen at the same
   virtual instant, so an IO-error window fails the attempt atomically
   and the whole slot is retried later. *)
let rec log_slot t pid slot winner fresh epoch0 () =
  let disk = t.disks.(pid) in
  if Store.Disk.epoch disk = epoch0 && not (is_crashed t pid) then begin
    let append s =
      match Store.Disk.append disk s with
      | Ok seq ->
          t.last_seq.(pid) <- seq;
          true
      | Error `Io_error -> false
    in
    if
      List.for_all
        (fun e -> append (Wal.encode_entry ~op_to_string:t.m.op_to_string slot e))
        fresh
      && append (Wal.encode_commit slot winner)
    then begin
      t.awaiting.(pid) <-
        t.awaiting.(pid) @ List.map (fun (e : _ Wal.entry) -> e.cid) fresh;
      if fresh <> [] then flush t pid epoch0 ()
    end
    else
      Dsim.Engine.schedule t.engine ~delay:retry_delay
        (log_slot t pid slot winner fresh epoch0)
  end

(* Save a snapshot payload; once it is durable, compact the WAL it
   supersedes and run [k]. *)
let save_snapshot t pid ~upto ~state ~cids ~k =
  let disk = t.disks.(pid) in
  let watermark = t.last_seq.(pid) in
  Store.Disk.save_snapshot disk ~upto (Wal.encode_snapshot ~upto ~state ~cids)
    ~k:(fun () ->
      Store.Disk.compact disk ~upto_seq:watermark;
      k ())

let delivered_cids r =
  List.sort compare (Hashtbl.fold (fun cid () acc -> cid :: acc) r.delivered [])

let take_snapshot t pid ~upto =
  let state = t.m.snapshot t.states.(pid) in
  let cids = delivered_cids t.replicas.(pid) in
  let flying = t.awaiting.(pid) in
  t.awaiting.(pid) <- [];
  (* once durable, the snapshot covers the commands still in flight, and
     is advertised for state transfer *)
  match
    save_snapshot t pid ~upto ~state ~cids ~k:(fun () ->
        mark_durable t flying;
        set_floor t ~owner:pid ~upto ~state ~cids)
  with
  | Ok () -> ()
  | Error `Io_error -> t.awaiting.(pid) <- flying

(* A replica finished [slot] (possibly empty), won by [winner], freshly
   applying [fresh]: write it to the WAL and, every [snapshot_every]
   non-empty slots, take a snapshot. *)
let persist t pid ~slot ~winner ~fresh =
  if t.store_on && not (is_crashed t pid) then begin
    log_slot t pid slot winner fresh (Store.Disk.epoch t.disks.(pid)) ();
    if fresh <> [] then begin
      t.nonempty_slots.(pid) <- t.nonempty_slots.(pid) + 1;
      if
        t.scfg.snapshot_every > 0
        && t.nonempty_slots.(pid) mod t.scfg.snapshot_every = 0
      then take_snapshot t pid ~upto:slot
    end
  end

(* --- the replica loop --- *)

let receive t pid (e : _ Wal.entry) =
  let r = t.replicas.(pid) in
  if not (Hashtbl.mem r.delivered e.cid) then begin
    Hashtbl.replace r.pending e.cid e;
    Dsim.Engine.signal r.wake
  end

let take_batch t r =
  let ids = Hashtbl.fold (fun cid _ acc -> cid :: acc) r.pending [] in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | cid :: rest -> Hashtbl.find r.pending cid :: take (k - 1) rest
  in
  take t.batch (List.sort compare ids)

let floor_ready t r =
  match t.floor with Some f when f.upto >= r.next_slot -> Some f | _ -> None

(* State transfer: the replica is behind the advertised snapshot floor
   (the donor may have compacted the slots it would need to replay), so
   it adopts the donor's state wholesale instead of going slot by slot,
   and persists the received snapshot so that its own next recovery
   starts from it. *)
let install t pid (f : floor) =
  let r = t.replicas.(pid) in
  Hashtbl.reset r.delivered;
  List.iter
    (fun cid ->
      Hashtbl.replace r.delivered cid ();
      Hashtbl.remove r.pending cid)
    f.cids;
  r.next_slot <- f.upto + 1;
  t.states.(pid) <- t.m.restore f.state;
  Checker.record_installed t.checker ~replica:pid ~from_replica:f.owner
    ~upto_slot:f.upto;
  emit t (fun () ->
      Printf.sprintf "replica %d installed snapshot upto slot %d from %d" pid
        f.upto f.owner);
  if t.store_on then
    match
      save_snapshot t pid ~upto:f.upto ~state:f.state ~cids:f.cids ~k:ignore
    with
    | Ok () | Error `Io_error -> ()

let deliver t pid ~slot (e : _ Wal.entry) =
  let st, out = t.m.apply t.states.(pid) e.op in
  t.states.(pid) <- st;
  Checker.record_applied t.checker ~replica:pid ~slot ~cid:e.cid;
  if not (Hashtbl.mem t.first_output e.cid) then begin
    Hashtbl.replace t.first_output e.cid out;
    t.on_first_apply e.op out;
    if not (acks_wait_for_disk t) then t.on_ready ~cid:e.cid
  end

(* With pending commands (or a slot some peer opened), propose a batch
   for the next slot, wait for the log's decision, and apply the
   winning batch minus what this replica already applied, so a command
   that rides in several proposals is still applied exactly once. *)
let replica_loop t pid _ctx =
  let r = t.replicas.(pid) in
  let rec loop () =
    match floor_ready t r with
    | Some f ->
        install t pid f;
        loop ()
    | None -> (
        let verdict =
          Dsim.Engine.await_any [ r.wake; t.changed ] (fun () ->
              if floor_ready t r <> None then Some `Go
              else if Hashtbl.length r.pending > 0 || Hashtbl.mem t.log r.next_slot
              then Some `Go
              else if t.stopped then Some `Exit
              else None)
        in
        match verdict with
        | `Exit -> ()
        | `Go when floor_ready t r <> None -> loop ()
        | `Go ->
            let slot = r.next_slot in
            propose t ~slot ~pid ~batch:(take_batch t r);
            let winner, batch =
              Dsim.Engine.await t.changed (fun () -> decided t ~slot)
            in
            let fresh =
              List.filter
                (fun (e : _ Wal.entry) -> not (Hashtbl.mem r.delivered e.cid))
                batch
            in
            List.iter (fun (e : _ Wal.entry) -> Hashtbl.remove r.pending e.cid) batch;
            List.iter
              (fun (e : _ Wal.entry) ->
                Hashtbl.replace r.delivered e.cid ();
                deliver t pid ~slot e)
              fresh;
            r.next_slot <- slot + 1;
            persist t pid ~slot ~winner ~fresh;
            loop ())
  in
  loop ()

let spawn_replica t pid =
  t.replicas.(pid).process <-
    Dsim.Engine.spawn t.engine
      ~name:(fun () -> Printf.sprintf "rsm-replica-%d" pid)
      (replica_loop t pid)

let create ~engine ~label ~n ~backend ~seed ~batch ~store ~machine:m
    ~on_first_apply ~on_ready =
  if n < 1 then invalid_arg "Group.create: need at least one replica";
  if batch < 1 then invalid_arg "Group.create: batch must be >= 1";
  let policy_ref = ref (fun _ -> Netsim.Async_net.Deliver) in
  let net =
    Netsim.Async_net.create engine ~n
      ~policy:(fun env -> !policy_ref env)
      ~retain_inbox:false ()
  in
  let scfg = Option.value store ~default:default_store_config in
  let store_policy_ref = ref scfg.policy in
  let t =
    {
      engine;
      label;
      n;
      batch;
      m;
      net;
      policy_ref;
      backend;
      seed;
      log = Hashtbl.create 64;
      changed = Dsim.Engine.queue engine;
      floor = None;
      slots = 0;
      instances = 0;
      replicas =
        Array.init n (fun _ ->
            {
              pending = Hashtbl.create 32;
              delivered = Hashtbl.create 64;
              next_slot = 0;
              wake = Dsim.Engine.queue engine;
              process = -1;
            });
      states = Array.init n (fun _ -> m.fresh ());
      checker = Checker.create ();
      stopped = false;
      store_on = store <> None;
      scfg;
      store_policy_ref;
      disks =
        (if store <> None then
           Array.init n (fun pid ->
               Store.Disk.create ~engine ~pid
                 ~policy:(fun () -> !store_policy_ref)
                 ())
         else [||]);
      durable = Hashtbl.create 64;
      awaiting = Array.make n [];
      last_seq = Array.make n (-1);
      nonempty_slots = Array.make n 0;
      first_output = Hashtbl.create 256;
      on_first_apply;
      on_ready;
      crashed = [];
      restarted = [];
    }
  in
  for pid = 0 to n - 1 do
    Netsim.Async_net.set_handler net pid (fun env ->
        receive t pid env.Netsim.Async_net.payload);
    spawn_replica t pid
  done;
  t

(* Command dissemination is a plain best-effort broadcast; the log
   restores uniformity (a decided batch reaches every live replica even
   when the broadcast was cut short by the sender's crash). *)
let submit t ~start ~cid op =
  Checker.record_submitted t.checker ~cid;
  let rec pick j =
    if j >= t.n then None
    else
      let r = (start + j) mod t.n in
      if is_crashed t r then pick (j + 1) else Some r
  in
  match pick 0 with
  | None -> false
  | Some r ->
      let e = { Wal.cid; op } in
      receive t r e;
      Netsim.Async_net.broadcast t.net ~src:r e;
      true

let first_output t ~cid = Hashtbl.find_opt t.first_output cid
let record_acked t ~cid = Checker.record_acked t.checker ~cid

let stop t =
  t.stopped <- true;
  Array.iter (fun r -> Dsim.Engine.signal r.wake) t.replicas

let engine t = t.engine

(* --- crash and recovery --- *)

(* Without a store memory survives a crash (the recoverable model); with
   one, a crash also loses what a real crash loses: the pending set
   (which stays empty until the restart, since a crashed replica
   receives nothing) and the disk's unsynced tail. *)
let crash t victim =
  if not (is_crashed t victim) then begin
    Netsim.Async_net.crash t.net victim;
    let r = t.replicas.(victim) in
    Dsim.Engine.kill t.engine r.process;
    if t.store_on then begin
      Hashtbl.reset r.pending;
      Dsim.Engine.signal r.wake;
      Store.Disk.crash t.disks.(victim);
      t.awaiting.(victim) <- [];
      (* judge this replica's history by what its disk can reproduce *)
      let rd = Wal.recover ~op_of_string:t.m.op_of_string t.disks.(victim) in
      Checker.record_crashed t.checker ~replica:victim
        ~survived:(List.length rd.r_cids);
      (* with nobody left alive, nobody remembers the log: recovery
         must start from the disks alone *)
      if live t = [] then begin
        Hashtbl.reset t.log;
        t.floor <- None;
        Dsim.Engine.signal t.changed
      end
    end;
    t.crashed <- victim :: t.crashed;
    emit t (fun () -> Printf.sprintf "crashed replica %d" victim)
  end

(* Re-install a decision recovered from a replica's WAL, unless the slot
   is still remembered (every WAL agrees on a slot's winner, so the first
   recovery wins).  A reseeded slot costs no backend instances. *)
let reseed t ~slot ~winner ~batch =
  if not (Hashtbl.mem t.log slot) then begin
    Hashtbl.replace t.log slot
      {
        opener = winner;
        proposals = [ (winner, batch) ];
        decision = Some (winner, batch);
      };
    Dsim.Engine.signal t.changed;
    Dsim.Engine.emitk t.engine ~tag:"rsm" (fun () ->
        Printf.sprintf "slot %d reseeded from replica %d's WAL (%d cmds)" slot winner
          (List.length batch))
  end

(* What survives on [victim]'s disk: its latest snapshot plus the
   committed WAL prefix, replayed into its state, delivered set and slot
   counter.  Every decision the disk committed also re-feeds the log —
   after a total outage this is the only place decisions can come
   from. *)
let recover t victim =
  let rd = Wal.recover ~op_of_string:t.m.op_of_string t.disks.(victim) in
  (match rd.r_snap with
  | Some (upto, state, cids) ->
      t.states.(victim) <- t.m.restore state;
      set_floor t ~owner:victim ~upto ~state ~cids
  | None -> t.states.(victim) <- t.m.fresh ());
  List.iter
    (fun (slot, w, entries) ->
      if slot < rd.r_next_slot then
        List.iter
          (fun (e : _ Wal.entry) ->
            t.states.(victim) <- fst (t.m.apply t.states.(victim) e.op))
          entries;
      reseed t ~slot ~winner:w ~batch:entries)
    rd.r_slots;
  emit t (fun () ->
      Printf.sprintf "replica %d recovered %d commands, next slot %d" victim
        (List.length rd.r_cids) rd.r_next_slot);
  let r = t.replicas.(victim) in
  Hashtbl.reset r.delivered;
  List.iter (fun cid -> Hashtbl.replace r.delivered cid ()) rd.r_cids;
  r.next_slot <- rd.r_next_slot;
  Dsim.Engine.signal r.wake

(* Without a store the replica resumes at its pre-crash slot counter and
   catches up from the log's cached decisions. *)
let restart t victim =
  if is_crashed t victim then begin
    Netsim.Async_net.restart t.net victim;
    if t.store_on then recover t victim;
    spawn_replica t victim;
    t.restarted <- victim :: t.restarted;
    emit t (fun () -> Printf.sprintf "restarted replica %d" victim)
  end

let partition t groups = Netsim.Async_net.set_partition t.net groups
let heal t = Netsim.Async_net.heal t.net
let set_policy t p = t.policy_ref := p
let set_store_policy t p = t.store_policy_ref := p

(* --- scorecard --- *)

let violations t = Checker.check t.checker
let completeness t = Checker.check_complete t.checker ~live:(live t)
let durability t = Checker.check_durable t.checker ~live:(live t)
let digests t = Array.map t.m.digest t.states

let digests_agree t ds =
  match List.map (fun p -> ds.(p)) (live t) with
  | [] -> true
  | d :: rest -> List.for_all (( = ) d) rest

let delivered t = Array.map (fun r -> Hashtbl.length r.delivered) t.replicas
let applied_unique t = Hashtbl.length t.first_output
let slots t = t.slots
let instances t = t.instances
let messages_sent t = Netsim.Async_net.messages_sent t.net
let messages_delivered t = Netsim.Async_net.messages_delivered t.net
let crashed t = List.rev t.crashed
let restarted t = List.rev t.restarted
let disks t = t.disks
let state t r = t.states.(r)
