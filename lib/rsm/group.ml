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

type ('op, 'st, 'out) t = {
  engine : Dsim.Engine.t;
  label : string;
  n : int;
  m : ('op, 'st, 'out) machine;
  net : 'op Tob.entry Netsim.Async_net.t;
  policy_ref :
    ('op Tob.entry Netsim.Async_net.envelope -> Netsim.Async_net.policy_verdict)
    ref;
  log : 'op Tob.entry Log.t;
  tob : 'op Tob.t;
  states : 'st array;
  checker : Checker.t;
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

let live_of net n =
  List.filter (fun p -> not (Netsim.Async_net.is_crashed net p)) (List.init n Fun.id)

(* The log's quorum gate over the group's network: with the network
   whole every live replica counts (crash-only behaviour unchanged);
   under a cut only the side holding a strict majority of the live
   replicas may decide, and with no such side every slot stalls until
   heal. *)
let majority_view ~net ~live () =
  match Netsim.Async_net.partition_groups net with
  | None -> Some (live ())
  | Some groups ->
      let lv = live () in
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

let is_crashed t r = Netsim.Async_net.is_crashed t.net r
let live t = live_of t.net t.n

let emit t line =
  Dsim.Engine.emitk t.engine ~tag:"rsm" (fun () ->
      if t.label = "" then line () else t.label ^ " " ^ line ())

(* An honest server acks only after the command is durable somewhere;
   [ack_before_fsync] is the deliberately broken mode the durability
   audit exists to catch. *)
let acks_wait_for_disk t = t.store_on && not t.scfg.ack_before_fsync

let is_ready t ~cid =
  Hashtbl.mem t.first_output cid
  && ((not (acks_wait_for_disk t)) || Hashtbl.mem t.durable cid)

(* [on_ready] fires where [is_ready] first holds: at the first
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

let deliver t ~pid ~slot (e : _ Tob.entry) =
  let st, out = t.m.apply t.states.(pid) e.Tob.op in
  t.states.(pid) <- st;
  Checker.record_applied t.checker ~replica:pid ~slot ~cid:e.Tob.cid;
  if not (Hashtbl.mem t.first_output e.Tob.cid) then begin
    Hashtbl.replace t.first_output e.Tob.cid out;
    t.on_first_apply e.Tob.op out;
    if not (acks_wait_for_disk t) then t.on_ready ~cid:e.Tob.cid
  end

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
let rec log_slot t pid slot fresh epoch0 () =
  let disk = t.disks.(pid) in
  if Store.Disk.epoch disk = epoch0 && not (is_crashed t pid) then begin
    let append s =
      match Store.Disk.append disk s with
      | Ok seq ->
          t.last_seq.(pid) <- seq;
          true
      | Error `Io_error -> false
    in
    let winner =
      match Log.decided t.log ~slot with Some d -> d.Log.winner | None -> pid
    in
    if
      List.for_all
        (fun e -> append (Wal.encode_entry ~op_to_string:t.m.op_to_string slot e))
        fresh
      && append (Wal.encode_commit slot winner)
    then begin
      t.awaiting.(pid) <-
        t.awaiting.(pid) @ List.map (fun (e : _ Tob.entry) -> e.Tob.cid) fresh;
      if fresh <> [] then flush t pid epoch0 ()
    end
    else
      Dsim.Engine.schedule t.engine ~delay:retry_delay
        (log_slot t pid slot fresh epoch0)
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

let take_snapshot t pid ~upto =
  let state = t.m.snapshot t.states.(pid) in
  let cids = Tob.delivered_cids t.tob ~pid in
  let flying = t.awaiting.(pid) in
  t.awaiting.(pid) <- [];
  (* once durable, the snapshot covers the commands still in flight, and
     is advertised for state transfer *)
  match
    save_snapshot t pid ~upto ~state ~cids ~k:(fun () ->
        mark_durable t flying;
        Log.set_floor t.log ~owner:pid ~upto ~state ~cids)
  with
  | Ok () -> ()
  | Error `Io_error -> t.awaiting.(pid) <- flying

let on_slot_applied t ~pid ~slot ~fresh =
  if t.store_on && not (is_crashed t pid) then begin
    log_slot t pid slot fresh (Store.Disk.epoch t.disks.(pid)) ();
    if fresh <> [] then begin
      t.nonempty_slots.(pid) <- t.nonempty_slots.(pid) + 1;
      if
        t.scfg.snapshot_every > 0
        && t.nonempty_slots.(pid) mod t.scfg.snapshot_every = 0
      then take_snapshot t pid ~upto:slot
    end
  end

let on_install t ~pid ~owner ~upto ~state ~cids =
  t.states.(pid) <- t.m.restore state;
  Checker.record_installed t.checker ~replica:pid ~from_replica:owner
    ~upto_slot:upto;
  emit t (fun () ->
      Printf.sprintf "replica %d installed snapshot upto slot %d from %d" pid
        upto owner);
  (* persist the received snapshot so this replica's own next recovery
     starts from it, and drop the WAL it supersedes *)
  if t.store_on then
    match save_snapshot t pid ~upto ~state ~cids ~k:ignore with
    | Ok () | Error `Io_error -> ()

let create ~engine ~label ~n ~backend ~seed ~latency ~batch ~store ~machine:m
    ~on_first_apply ~on_ready =
  if n < 1 then invalid_arg "Group.create: need at least one replica";
  let policy_ref = ref (fun _ -> Netsim.Async_net.Deliver) in
  let net =
    Netsim.Async_net.create engine ~n ~latency
      ~policy:(fun env -> !policy_ref env)
      ~retain_inbox:false ()
  in
  let live () = live_of net n in
  let log =
    Log.create ~engine ~backend ~seed ~live
      ~view:(majority_view ~net ~live)
      ~topology:(Netsim.Async_net.topology net) ()
  in
  let scfg = Option.value store ~default:default_store_config in
  let store_policy_ref = ref scfg.policy in
  (* the replica loops call back into the group they are part of *)
  let self = ref None in
  let group () = Option.get !self in
  let tob =
    Tob.create ~engine ~net ~log ~batch
      ~deliver:(fun ~pid ~slot e -> deliver (group ()) ~pid ~slot e)
      ~on_slot_applied:(fun ~pid ~slot ~fresh ->
        on_slot_applied (group ()) ~pid ~slot ~fresh)
      ~on_install:(fun ~pid ~owner ~upto ~state ~cids ->
        on_install (group ()) ~pid ~owner ~upto ~state ~cids)
      ()
  in
  let t =
    {
      engine;
      label;
      n;
      m;
      net;
      policy_ref;
      log;
      tob;
      states = Array.init n (fun _ -> m.fresh ());
      checker = Checker.create ();
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
  self := Some t;
  t

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
  | Some r -> Tob.submit t.tob ~replica:r { Tob.cid; op }

let first_output t ~cid = Hashtbl.find_opt t.first_output cid
let record_acked t ~cid = Checker.record_acked t.checker ~cid
let stop t = Tob.stop t.tob

(* --- crash and recovery --- *)

let crash t victim =
  if not (is_crashed t victim) then begin
    Netsim.Async_net.crash t.net victim;
    Tob.crash t.tob ~lose_pending:t.store_on victim;
    if t.store_on then begin
      Store.Disk.crash t.disks.(victim);
      t.awaiting.(victim) <- [];
      (* judge this replica's history by what its disk can reproduce *)
      let rd = Wal.recover ~op_of_string:t.m.op_of_string t.disks.(victim) in
      Checker.record_crashed t.checker ~replica:victim
        ~survived:(List.length rd.r_cids);
      if live t = [] then Log.forget_volatile t.log
    end;
    t.crashed <- victim :: t.crashed;
    emit t (fun () -> Printf.sprintf "crashed replica %d" victim)
  end

(* What survives on [victim]'s disk: its latest snapshot plus the
   committed WAL prefix, replayed into its state.  Every decision the
   disk committed also re-feeds the group's slot cache — after a total
   outage this is the only place decisions can come from. *)
let recover t victim =
  let rd = Wal.recover ~op_of_string:t.m.op_of_string t.disks.(victim) in
  (match rd.r_snap with
  | Some (upto, state, cids) ->
      t.states.(victim) <- t.m.restore state;
      Log.set_floor t.log ~owner:victim ~upto ~state ~cids
  | None -> t.states.(victim) <- t.m.fresh ());
  List.iter
    (fun (slot, w, entries) ->
      if slot < rd.r_next_slot then
        List.iter
          (fun (e : _ Tob.entry) ->
            t.states.(victim) <- fst (t.m.apply t.states.(victim) e.Tob.op))
          entries;
      Log.reseed t.log ~slot ~winner:w ~batch:entries)
    rd.r_slots;
  emit t (fun () ->
      Printf.sprintf "replica %d recovered %d commands, next slot %d" victim
        (List.length rd.r_cids) rd.r_next_slot);
  { Tob.next_slot = rd.r_next_slot; delivered_cids = rd.r_cids }

let restart t victim =
  if is_crashed t victim then begin
    Netsim.Async_net.restart t.net victim;
    let recovery = if t.store_on then Some (recover t victim) else None in
    Tob.restart t.tob ?recovery victim;
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

let digests_agree t =
  let ds = digests t in
  match List.map (fun p -> ds.(p)) (live t) with
  | [] -> true
  | d :: rest -> List.for_all (( = ) d) rest

let delivered t = Array.init t.n (fun pid -> Tob.delivered_count t.tob ~pid)
let applied_unique t = Hashtbl.length t.first_output
let slots t = Log.decided_count t.log
let instances t = Log.instances_total t.log
let messages_sent t = Netsim.Async_net.messages_sent t.net
let messages_delivered t = Netsim.Async_net.messages_delivered t.net
let crashed t = List.rev t.crashed
let restarted t = List.rev t.restarted
let disks t = t.disks
let state t r = t.states.(r)
