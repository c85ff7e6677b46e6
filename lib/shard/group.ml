(* One shard's consensus group in a shared engine.  It keeps its WAL in
   Rsm.Wal's format with the Cmd codec, and its snapshot flow and
   recovery rules are Rsm.Runner's, so a shard's crash–recovery
   behaviour is exactly the single-group model's. *)

type t = {
  engine : Dsim.Engine.t;
  shard : int;
  n : int;
  net : Cmd.t Rsm.Tob.entry Netsim.Async_net.t;
  log : Cmd.t Rsm.Tob.entry Rsm.Log.t;
  mutable tob : Cmd.t Rsm.Tob.t option;
  machines : Machine.t array;
  checker : Rsm.Checker.t;
  policy_ref :
    (Cmd.t Rsm.Tob.entry Netsim.Async_net.envelope ->
    Netsim.Async_net.policy_verdict)
    ref;
  (* stable storage (empty arrays when store = None) *)
  store_on : bool;
  scfg : Rsm.Runner.store_config;
  store_policy_ref : Store.Policy.t ref;
  disks : Store.Disk.t array;
  durable_cids : (int, unit) Hashtbl.t;
  awaiting : int list array;
  last_seq : int array;
  nonempty_slots : int array;
  (* completion plumbing *)
  first_output : (int, Machine.output) Hashtbl.t;  (* cid -> first result *)
  readied : (int, unit) Hashtbl.t;
  on_first_apply : cid:int -> Cmd.t -> Machine.output -> unit;
  on_ready : cid:int -> unit;
  mutable crashed_acc : int list;
  mutable restarted_acc : int list;
}

let the_tob t = Option.get t.tob
let shard t = t.shard
let replicas t = t.n
let is_crashed t r = Netsim.Async_net.is_crashed t.net r

let live t =
  List.filter (fun p -> not (is_crashed t p)) (List.init t.n Fun.id)

(* a cid is ready once applied somewhere and, under honest durable
   acks, hardened on some disk *)
let ready_now t cid =
  Hashtbl.mem t.first_output cid
  && ((not t.store_on) || t.scfg.ack_before_fsync || Hashtbl.mem t.durable_cids cid)

let fire_ready t cid =
  if (not (Hashtbl.mem t.readied cid)) && ready_now t cid then begin
    Hashtbl.replace t.readied cid ();
    Dsim.Engine.schedule t.engine ~delay:0 (fun () -> t.on_ready ~cid)
  end

let mark_durable t cids =
  List.iter (fun c -> Hashtbl.replace t.durable_cids c ()) cids;
  List.iter (fun c -> fire_ready t c) cids

let retry_delay = 17

let rec flush t pid epoch0 () =
  let disk = t.disks.(pid) in
  if Store.Disk.epoch disk = epoch0 && not (is_crashed t pid) then begin
    let batch = t.awaiting.(pid) in
    match Store.Disk.fsync disk ~k:(fun () -> mark_durable t batch) with
    | Ok () -> t.awaiting.(pid) <- []
    | Error `Io_error ->
        Dsim.Engine.schedule t.engine ~delay:retry_delay (flush t pid epoch0)
  end

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
      match Rsm.Log.decided t.log ~slot with
      | Some d -> d.Rsm.Log.winner
      | None -> pid
    in
    if
      List.for_all
        (fun e -> append (Rsm.Wal.encode_entry ~op_to_string:Cmd.to_string slot e))
        fresh
      && append (Rsm.Wal.encode_commit slot winner)
    then begin
      t.awaiting.(pid) <-
        t.awaiting.(pid)
        @ List.map (fun (e : _ Rsm.Tob.entry) -> e.Rsm.Tob.cid) fresh;
      if fresh <> [] then flush t pid epoch0 ()
    end
    else
      Dsim.Engine.schedule t.engine ~delay:retry_delay
        (log_slot t pid slot fresh epoch0)
  end

let take_snapshot t pid ~upto =
  let disk = t.disks.(pid) in
  let state = Machine.snapshot t.machines.(pid) in
  let cids = Rsm.Tob.delivered_cids (the_tob t) ~pid in
  let payload = Rsm.Wal.encode_snapshot ~upto ~state ~cids in
  let watermark = t.last_seq.(pid) in
  let flying = t.awaiting.(pid) in
  t.awaiting.(pid) <- [];
  match
    Store.Disk.save_snapshot disk ~upto payload ~k:(fun () ->
        Store.Disk.compact disk ~upto_seq:watermark;
        mark_durable t flying;
        Rsm.Log.set_floor t.log ~owner:pid ~upto ~state ~cids)
  with
  | Ok () -> ()
  | Error `Io_error -> t.awaiting.(pid) <- flying

let create ~engine ~shard ~replicas:n ~backend ~seed
    ?(latency = Netsim.Latency.Uniform (1, 10)) ~batch ?store ~on_first_apply
    ~on_ready () =
  if n < 1 then invalid_arg "Group.create: need at least one replica";
  let policy_ref = ref (fun _ -> Netsim.Async_net.Deliver) in
  let net =
    Netsim.Async_net.create engine ~n ~latency
      ~policy:(fun env -> !policy_ref env)
      ~retain_inbox:false ()
  in
  let store_on = store <> None in
  let scfg = Option.value store ~default:Rsm.Runner.default_store_config in
  let store_policy_ref = ref scfg.Rsm.Runner.policy in
  let t =
    {
      engine;
      shard;
      n;
      net;
      log =
        (let live () =
           List.filter
             (fun p -> not (Netsim.Async_net.is_crashed net p))
             (List.init n Fun.id)
         in
         Rsm.Log.create ~engine ~backend ~seed ~live
           ~view:(Rsm.Log.majority_view ~net ~live)
           ~topology:(Netsim.Async_net.topology net) ());
      tob = None;
      machines = Array.init n (fun _ -> Machine.create ~shard);
      checker = Rsm.Checker.create ();
      policy_ref;
      store_on;
      scfg;
      store_policy_ref;
      disks =
        (if store_on then
           Array.init n (fun pid ->
               Store.Disk.create ~engine ~pid
                 ~policy:(fun () -> !store_policy_ref)
                 ())
         else [||]);
      durable_cids = Hashtbl.create 64;
      awaiting = Array.make n [];
      last_seq = Array.make n (-1);
      nonempty_slots = Array.make n 0;
      first_output = Hashtbl.create 256;
      readied = Hashtbl.create 256;
      on_first_apply;
      on_ready;
      crashed_acc = [];
      restarted_acc = [];
    }
  in
  let deliver ~pid ~slot (e : Cmd.t Rsm.Tob.entry) =
    let out = Machine.apply t.machines.(pid) e.Rsm.Tob.op in
    Rsm.Checker.record_applied t.checker ~replica:pid ~slot ~cid:e.Rsm.Tob.cid;
    if not (Hashtbl.mem t.first_output e.Rsm.Tob.cid) then begin
      Hashtbl.replace t.first_output e.Rsm.Tob.cid out;
      let cid = e.Rsm.Tob.cid and op = e.Rsm.Tob.op in
      Dsim.Engine.schedule t.engine ~delay:0 (fun () ->
          t.on_first_apply ~cid op out);
      fire_ready t cid
    end
  in
  let on_slot_applied ~pid ~slot ~fresh =
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
  in
  let on_install ~pid ~owner ~upto ~state ~cids =
    t.machines.(pid) <- Machine.restore state;
    Rsm.Checker.record_installed t.checker ~replica:pid ~from_replica:owner
      ~upto_slot:upto;
    Dsim.Engine.emitk engine ~tag:"shard" (fun () ->
        Printf.sprintf "shard %d replica %d installed snapshot upto %d from %d"
          t.shard pid upto owner);
    if t.store_on then begin
      let payload = Rsm.Wal.encode_snapshot ~upto ~state ~cids in
      let watermark = t.last_seq.(pid) in
      match
        Store.Disk.save_snapshot t.disks.(pid) ~upto payload ~k:(fun () ->
            Store.Disk.compact t.disks.(pid) ~upto_seq:watermark)
      with
      | Ok () | Error `Io_error -> ()
    end
  in
  t.tob <-
    Some
      (Rsm.Tob.create ~engine ~net ~log:t.log ~batch ~deliver ~on_slot_applied
         ~on_install ());
  t

let submit t ?(attempt = 0) ~cid op =
  Rsm.Checker.record_submitted t.checker ~cid;
  let rec pick j =
    if j >= t.n then None
    else
      let r = (cid + attempt + j) mod t.n in
      if is_crashed t r then pick (j + 1) else Some r
  in
  match pick 0 with
  | None -> false
  | Some r -> Rsm.Tob.submit (the_tob t) ~replica:r { Rsm.Tob.cid; op }

let crash t victim =
  if not (is_crashed t victim) then begin
    Netsim.Async_net.crash t.net victim;
    Dsim.Engine.kill t.engine (Rsm.Tob.process (the_tob t) victim);
    if t.store_on then begin
      Rsm.Tob.crash (the_tob t) victim;
      Store.Disk.crash t.disks.(victim);
      t.awaiting.(victim) <- [];
      let rd = Rsm.Wal.recover ~op_of_string:Cmd.of_string t.disks.(victim) in
      Rsm.Checker.record_crashed t.checker ~replica:victim
        ~survived:(List.length rd.r_cids);
      if live t = [] then Rsm.Log.forget_volatile t.log
    end;
    t.crashed_acc <- victim :: t.crashed_acc;
    Dsim.Engine.emitk t.engine ~tag:"shard" (fun () ->
        Printf.sprintf "shard %d crashed replica %d" t.shard victim)
  end

let restart t victim =
  if is_crashed t victim then begin
    Netsim.Async_net.restart t.net victim;
    if t.store_on then begin
      let rd = Rsm.Wal.recover ~op_of_string:Cmd.of_string t.disks.(victim) in
      (match rd.r_snap with
      | Some (_, state, _) -> t.machines.(victim) <- Machine.restore state
      | None -> t.machines.(victim) <- Machine.create ~shard:t.shard);
      (match rd.r_snap with
      | Some (upto, state, cids) -> Rsm.Log.set_floor t.log ~owner:victim ~upto ~state ~cids
      | None -> ());
      List.iter
        (fun (slot, _w, entries) ->
          if slot < rd.r_next_slot then
            List.iter
              (fun (e : _ Rsm.Tob.entry) ->
                ignore
                  (Machine.apply t.machines.(victim) e.Rsm.Tob.op
                    : Machine.output))
              entries)
        rd.r_slots;
      List.iter
        (fun (slot, w, entries) ->
          Rsm.Log.reseed t.log ~slot ~winner:w ~batch:entries)
        rd.r_slots;
      Rsm.Tob.restart (the_tob t)
        ~recovery:
          { Rsm.Tob.next_slot = rd.r_next_slot; delivered_cids = rd.r_cids }
        victim
    end
    else Rsm.Tob.restart (the_tob t) victim;
    t.restarted_acc <- victim :: t.restarted_acc;
    Dsim.Engine.emitk t.engine ~tag:"shard" (fun () ->
        Printf.sprintf "shard %d restarted replica %d" t.shard victim)
  end

let partition t groups = Netsim.Async_net.set_partition t.net groups
let heal t = Netsim.Async_net.heal t.net
let set_policy t p = t.policy_ref := p
let set_store_policy t p = t.store_policy_ref := p
let record_acked t ~cid = Rsm.Checker.record_acked t.checker ~cid
let stop t = Rsm.Tob.stop (the_tob t)
let violations t = Rsm.Checker.check t.checker
let completeness t = Rsm.Checker.check_complete t.checker ~live:(live t)
let durability t = Rsm.Checker.check_durable t.checker ~live:(live t)
let digests t = Array.map Machine.digest t.machines

let digests_agree t =
  let ds = digests t in
  match List.map (fun p -> ds.(p)) (live t) with
  | [] -> true
  | d :: rest -> List.for_all (( = ) d) rest

let delivered t =
  Array.init t.n (fun pid -> Rsm.Tob.delivered_count (the_tob t) ~pid)

let applied_unique t = Hashtbl.length t.first_output
let slots t = Rsm.Log.decided_count t.log
let instances t = Rsm.Log.instances_total t.log
let messages_sent t = Netsim.Async_net.messages_sent t.net
let messages_delivered t = Netsim.Async_net.messages_delivered t.net
let crashed_list t = List.rev t.crashed_acc
let restarted_list t = List.rev t.restarted_acc
let store_stats t = Array.map Store.Disk.stats t.disks
let machine t r = t.machines.(r)
