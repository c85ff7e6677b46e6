type 'op faults = {
  engine : Dsim.Engine.t;
  crash : int -> unit;
  restart : int -> unit;
  partition : int list list -> unit;
  heal : unit -> unit;
  set_policy :
    ('op Tob.entry Netsim.Async_net.envelope ->
    Netsim.Async_net.policy_verdict) ->
    unit;
  set_store_policy : Store.Policy.t -> unit;
}

(* Everything the runner needs to know about the replicated object: a
   pure sequential step function plus single-line codecs for the WAL
   and snapshots.  Responses cross the interface already encoded — the
   runner stores and reports them, only a spec-aware checker interprets
   them. *)
type ('op, 'st) app = {
  name : string;
  init : 'st;
  apply : 'st -> 'op -> 'st * string;
  op_to_string : 'op -> string;
  op_of_string : string -> 'op;
  state_to_string : 'st -> string;
  state_of_string : string -> 'st;
  digest : 'st -> string;
}

type store_config = {
  policy : Store.Policy.t;
  snapshot_every : int;
  ack_before_fsync : bool;
}

let default_store_config =
  { policy = Store.Policy.none; snapshot_every = 4; ack_before_fsync = false }

type 'op config = {
  backend : Backend.t;
  n : int;
  batch : int;
  seed : int64;
  latency : Netsim.Latency.t;
  crash_schedule : (int * int) list;
  restart_schedule : (int * int) list;
  inject : ('op faults -> unit) option;
  trace_capacity : int option;
  quiet : bool;
  batching : bool;
  ops : 'op list array;
  ack_timeout : int;
  max_events : int;
  store : store_config option;
}

let default_config ~n ~ops =
  {
    backend = Backend.ben_or;
    n;
    batch = 8;
    seed = 1L;
    latency = Netsim.Latency.Uniform (1, 10);
    crash_schedule = [];
    restart_schedule = [];
    inject = None;
    trace_capacity = None;
    quiet = false;
    batching = true;
    ops;
    ack_timeout = 2_000;
    max_events = 5_000_000;
    store = None;
  }

type 'op hist = {
  h_cid : int;
  h_client : int;
  h_op : 'op;
  h_invoked : int;
  h_resp : string option;
  h_returned : int option;
}

type 'op report = {
  engine_outcome : Dsim.Engine.outcome;
  virtual_time : int;
  submitted : int;
  acked : int;
  delivered : int array;
  slots : int;
  instances : int;
  messages_sent : int;
  messages_delivered : int;
  crashed : int list;
  restarted : int list;
  violations : Checker.violation list;
  completeness : Checker.violation list;
  durability : Checker.violation list;
  digests_agree : bool;
  digests : string array;
  history : 'op hist list;
  latencies : float list;
  trace : Dsim.Trace.t;
  store_stats : Store.Disk.stats array;
  disks : Store.Disk.t array;
}

(* Globally unique command ids: client in the high bits, sequence low. *)
let cid ~client ~k = (client lsl 20) lor k

(* Internal per-command history record; frozen into ['op hist] for the
   report.  The response is recorded at the {e first} application
   anywhere in the cluster — the log is totally ordered and [apply]
   deterministic, so every replica computes the same one. *)
type 'op hrec = {
  hr_client : int;
  hr_op : 'op;
  hr_invoked : int;
  mutable hr_resp : string option;
  mutable hr_returned : int option;
}

let run (type op st) (app : (op, st) app) (cfg : op config) : op report =
  if cfg.n < 1 then invalid_arg "Runner.run: need at least one replica";
  let eng =
    Dsim.Engine.create ~seed:cfg.seed ?trace_capacity:cfg.trace_capacity
      ~tracing:(not cfg.quiet) ~batching:cfg.batching ()
  in
  let policy_ref = ref (fun _ -> Netsim.Async_net.Deliver) in
  let net =
    Netsim.Async_net.create eng ~n:cfg.n ~latency:cfg.latency
      ~policy:(fun env -> !policy_ref env)
      ~retain_inbox:false ()
  in
  let live () =
    List.filter
      (fun p -> not (Netsim.Async_net.is_crashed net p))
      (List.init cfg.n Fun.id)
  in
  let log =
    Log.create ~engine:eng ~backend:cfg.backend ~seed:cfg.seed ~live
      ~view:(Log.majority_view ~net ~live)
      ~topology:(Netsim.Async_net.topology net) ()
  in
  let apps = Array.make cfg.n app.init in
  let checker = Checker.create () in
  let hists : (int, op hrec) Hashtbl.t = Hashtbl.create 64 in
  let deliver ~pid ~slot (e : op Tob.entry) =
    let st, resp = app.apply apps.(pid) e.Tob.op in
    apps.(pid) <- st;
    (match Hashtbl.find_opt hists e.Tob.cid with
    | Some h when h.hr_resp = None -> h.hr_resp <- Some resp
    | Some _ | None -> ());
    Checker.record_applied checker ~replica:pid ~slot ~cid:e.Tob.cid
  in
  (* --- stable storage --- *)
  let store_on = cfg.store <> None in
  let scfg = Option.value cfg.store ~default:default_store_config in
  let store_policy_ref = ref scfg.policy in
  let disks =
    if store_on then
      Array.init cfg.n (fun pid ->
          Store.Disk.create ~engine:eng ~pid
            ~policy:(fun () -> !store_policy_ref)
            ())
    else [||]
  in
  let durable_cids : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let mark_durable cids =
    List.iter (fun c -> Hashtbl.replace durable_cids c ()) cids
  in
  (* per-replica cids committed to the WAL but not yet known durable *)
  let awaiting = Array.make cfg.n [] in
  let last_seq = Array.make cfg.n (-1) in
  let nonempty_slots = Array.make cfg.n 0 in
  let tob_ref = ref None in
  let the_tob () = Option.get !tob_ref in
  let retry_delay = 17 in
  (* Try to fsync everything unsynced on [pid]'s disk; on a visible IO
     error, keep retrying after the window — a real WAL would not drop a
     committed batch on EIO either. *)
  let rec flush pid epoch0 () =
    let disk = disks.(pid) in
    if Store.Disk.epoch disk = epoch0 && not (Netsim.Async_net.is_crashed net pid)
    then begin
      let batch = awaiting.(pid) in
      match Store.Disk.fsync disk ~k:(fun () -> mark_durable batch) with
      | Ok () -> awaiting.(pid) <- []
      | Error `Io_error ->
          Dsim.Engine.schedule eng ~delay:retry_delay (flush pid epoch0)
    end
  in
  (* Write one finished slot to the WAL: fresh entries, then the commit
     marker, then fsync.  All appends in one attempt happen at the same
     virtual instant, so an IO-error window fails the attempt atomically
     and the whole slot is retried later. *)
  let rec log_slot pid slot fresh epoch0 () =
    let disk = disks.(pid) in
    if Store.Disk.epoch disk = epoch0 && not (Netsim.Async_net.is_crashed net pid)
    then begin
      let append s =
        match Store.Disk.append disk s with
        | Ok seq ->
            last_seq.(pid) <- seq;
            true
        | Error `Io_error -> false
      in
      let winner =
        match Log.decided log ~slot with Some d -> d.Log.winner | None -> pid
      in
      if
        List.for_all
          (fun e -> append (Wal.encode_entry ~op_to_string:app.op_to_string slot e))
          fresh
        && append (Wal.encode_commit slot winner)
      then begin
        awaiting.(pid) <-
          awaiting.(pid) @ List.map (fun (e : _ Tob.entry) -> e.Tob.cid) fresh;
        if fresh <> [] then flush pid epoch0 ()
      end
      else
        Dsim.Engine.schedule eng ~delay:retry_delay (log_slot pid slot fresh epoch0)
    end
  in
  let take_snapshot pid ~upto =
    let disk = disks.(pid) in
    let state = app.state_to_string apps.(pid) in
    let cids = Tob.delivered_cids (the_tob ()) ~pid in
    let payload = Wal.encode_snapshot ~upto ~state ~cids in
    let watermark = last_seq.(pid) in
    let flying = awaiting.(pid) in
    awaiting.(pid) <- [];
    match
      Store.Disk.save_snapshot disk ~upto payload ~k:(fun () ->
          (* compact only once the snapshot is durable, and advertise it
             for state transfer *)
          Store.Disk.compact disk ~upto_seq:watermark;
          mark_durable flying;
          Log.set_floor log ~owner:pid ~upto ~state ~cids)
    with
    | Ok () -> ()
    | Error `Io_error -> awaiting.(pid) <- flying
  in
  let on_slot_applied ~pid ~slot ~fresh =
    if store_on && not (Netsim.Async_net.is_crashed net pid) then begin
      log_slot pid slot fresh (Store.Disk.epoch disks.(pid)) ();
      if fresh <> [] then begin
        nonempty_slots.(pid) <- nonempty_slots.(pid) + 1;
        if
          scfg.snapshot_every > 0
          && nonempty_slots.(pid) mod scfg.snapshot_every = 0
        then take_snapshot pid ~upto:slot
      end
    end
  in
  let on_install ~pid ~owner ~upto ~state ~cids =
    apps.(pid) <- app.state_of_string state;
    Checker.record_installed checker ~replica:pid ~from_replica:owner
      ~upto_slot:upto;
    Dsim.Engine.emitk eng ~tag:"rsm" (fun () ->
        Printf.sprintf "replica %d installed snapshot upto slot %d from %d" pid
          upto owner);
    if store_on then begin
      (* persist the received snapshot so this replica's own next
         recovery starts from it, and drop the WAL it supersedes *)
      let payload = Wal.encode_snapshot ~upto ~state ~cids in
      let watermark = last_seq.(pid) in
      match
        Store.Disk.save_snapshot disks.(pid) ~upto payload ~k:(fun () ->
            Store.Disk.compact disks.(pid) ~upto_seq:watermark)
      with
      | Ok () | Error `Io_error -> ()
    end
  in
  let tob =
    Tob.create ~engine:eng ~net ~log ~batch:cfg.batch ~deliver ~on_slot_applied
      ~on_install ()
  in
  tob_ref := Some tob;
  let clients = Array.length cfg.ops in
  let done_clients = ref 0 in
  let clients_done = Dsim.Engine.queue eng in
  let acked = ref 0 in
  let latencies = ref [] in
  (* An honest server acks only after the command is durable somewhere;
     [ack_before_fsync] is the deliberately broken mode the durability
     audit exists to catch. *)
  let ack_ready cid =
    Tob.is_delivered tob ~cid
    && ((not store_on) || scfg.ack_before_fsync || Hashtbl.mem durable_cids cid)
  in
  let client_body c ctx =
    List.iteri
      (fun k op ->
        let cid = cid ~client:c ~k in
        Checker.record_submitted checker ~cid;
        let t0 = Dsim.Engine.now eng in
        Hashtbl.replace hists cid
          {
            hr_client = c;
            hr_op = op;
            hr_invoked = t0;
            hr_resp = None;
            hr_returned = None;
          };
        let attempt = ref 0 in
        let rec submit_round () =
          (* rotate over live replicas, starting at a client-specific one *)
          let rec pick j =
            if j >= cfg.n then None
            else
              let r = (c + !attempt + j) mod cfg.n in
              if Netsim.Async_net.is_crashed net r then pick (j + 1) else Some r
          in
          Option.iter
            (fun r -> ignore (Tob.submit tob ~replica:r { Tob.cid; op } : bool))
            (pick 0);
          incr attempt;
          let deadline = Dsim.Engine.now eng + cfg.ack_timeout in
          let got_ack =
            Dsim.Engine.poll_every ctx ~period:10 (fun () ->
                if ack_ready cid then Some true
                else if Dsim.Engine.now eng >= deadline then Some false
                else None)
          in
          if not got_ack then submit_round ()
        in
        submit_round ();
        Checker.record_acked checker ~cid;
        (Hashtbl.find hists cid).hr_returned <- Some (Dsim.Engine.now eng);
        incr acked;
        latencies := float_of_int (Dsim.Engine.now eng - t0) :: !latencies)
      cfg.ops.(c);
    incr done_clients;
    Dsim.Engine.signal clients_done
  in
  for c = 0 to clients - 1 do
    ignore
      (Dsim.Engine.spawn eng ~name:(Printf.sprintf "client-%d" c) (client_body c)
        : Dsim.Engine.pid)
  done;
  (* Once every client's last command is acked, no new pending can appear
     (late duplicate copies are filtered at receipt), so ask the replica
     loops to wind down and let the run reach quiescence. *)
  ignore
    (Dsim.Engine.spawn eng ~name:"supervisor" (fun _ctx ->
         Dsim.Engine.await_cond clients_done (fun () -> !done_clients = clients);
         Tob.stop tob)
      : Dsim.Engine.pid);
  let crashed = ref [] in
  let restarted = ref [] in
  let crash_replica victim =
    if not (Netsim.Async_net.is_crashed net victim) then begin
      Netsim.Async_net.crash net victim;
      Dsim.Engine.kill eng (Tob.process tob victim);
      if store_on then begin
        Tob.crash tob victim;
        Store.Disk.crash disks.(victim);
        awaiting.(victim) <- [];
        (* judge this replica's history by what its disk can reproduce *)
        let rd = Wal.recover ~op_of_string:app.op_of_string disks.(victim) in
        Checker.record_crashed checker ~replica:victim
          ~survived:(List.length rd.r_cids);
        if live () = [] then Log.forget_volatile log
      end;
      crashed := victim :: !crashed;
      Dsim.Engine.emitk eng ~tag:"rsm" (fun () ->
          Printf.sprintf "crashed replica %d" victim)
    end
  in
  let restart_replica victim =
    if Netsim.Async_net.is_crashed net victim then begin
      Netsim.Async_net.restart net victim;
      if store_on then begin
        let rd = Wal.recover ~op_of_string:app.op_of_string disks.(victim) in
        (match rd.r_snap with
        | Some (upto, state, cids) ->
            apps.(victim) <- app.state_of_string state;
            Log.set_floor log ~owner:victim ~upto ~state ~cids
        | None -> apps.(victim) <- app.init);
        List.iter
          (fun (slot, _w, entries) ->
            if slot < rd.r_next_slot then
              List.iter
                (fun (e : _ Tob.entry) ->
                  apps.(victim) <- fst (app.apply apps.(victim) e.Tob.op))
                entries)
          rd.r_slots;
        (* re-feed the cluster's slot cache with every decision this
           disk committed — after a total outage this is the only place
           decisions can come from *)
        List.iter
          (fun (slot, w, entries) -> Log.reseed log ~slot ~winner:w ~batch:entries)
          rd.r_slots;
        Tob.restart tob
          ~recovery:{ Tob.next_slot = rd.r_next_slot; delivered_cids = rd.r_cids }
          victim;
        Dsim.Engine.emitk eng ~tag:"rsm" (fun () ->
            Printf.sprintf "replica %d recovered %d commands, next slot %d"
              victim (List.length rd.r_cids) rd.r_next_slot)
      end
      else Tob.restart tob victim;
      restarted := victim :: !restarted;
      Dsim.Engine.emitk eng ~tag:"rsm" (fun () ->
          Printf.sprintf "restarted replica %d" victim)
    end
  in
  let faults =
    {
      engine = eng;
      crash = crash_replica;
      restart = restart_replica;
      partition = (fun groups -> Netsim.Async_net.set_partition net groups);
      heal = (fun () -> Netsim.Async_net.heal net);
      set_policy = (fun p -> policy_ref := p);
      set_store_policy = (fun p -> store_policy_ref := p);
    }
  in
  List.iter
    (fun (time, victim) ->
      Dsim.Engine.schedule eng ~delay:time (fun () -> crash_replica victim))
    cfg.crash_schedule;
  List.iter
    (fun (time, victim) ->
      Dsim.Engine.schedule eng ~delay:time (fun () -> restart_replica victim))
    cfg.restart_schedule;
  Option.iter (fun f -> f faults) cfg.inject;
  let engine_outcome = Dsim.Engine.run ~max_events:cfg.max_events eng in
  let live_now = live () in
  let digests = Array.map app.digest apps in
  let live_digests = List.map (fun p -> digests.(p)) live_now in
  let digests_agree =
    match live_digests with [] -> true | d :: rest -> List.for_all (( = ) d) rest
  in
  let history =
    Hashtbl.fold
      (fun cid (h : op hrec) acc ->
        {
          h_cid = cid;
          h_client = h.hr_client;
          h_op = h.hr_op;
          h_invoked = h.hr_invoked;
          h_resp = h.hr_resp;
          h_returned = h.hr_returned;
        }
        :: acc)
      hists []
    |> List.sort (fun a b -> compare (a.h_invoked, a.h_cid) (b.h_invoked, b.h_cid))
  in
  {
    engine_outcome;
    virtual_time = Dsim.Engine.now eng;
    submitted = Checker.submitted_count checker;
    acked = !acked;
    delivered = Array.init cfg.n (fun pid -> Tob.delivered_count tob ~pid);
    slots = Log.decided_count log;
    instances = Log.instances_total log;
    messages_sent = Netsim.Async_net.messages_sent net;
    messages_delivered = Netsim.Async_net.messages_delivered net;
    crashed = List.rev !crashed;
    restarted = List.rev !restarted;
    violations = Checker.check checker;
    completeness = Checker.check_complete checker ~live:live_now;
    durability = Checker.check_durable checker ~live:live_now;
    digests_agree;
    digests;
    history;
    latencies = List.rev !latencies;
    trace = Dsim.Engine.trace eng;
    store_stats = Array.map Store.Disk.stats disks;
    disks;
  }
