module Group = Rsm.Group

type client_op = Single of Obj.Kv.op | Tx of Cmd.wop list

type arrival =
  | Closed_loop of { think : int }
  | Open_loop of { mean_gap : float }

type crash_point = No_crash | After_prepare | After_decide

type config = {
  shards : int;
  replicas : int;
  backend : Rsm.Backend.t;
  batch : int;
  seed : int64;
  latency : Netsim.Latency.t;
  ops : client_op list array;
  arrival : arrival;
  ack_timeout : int;
  max_events : int;
  store : Rsm.Runner.store_config option;
  inject : ((Cmd.t, Machine.t, Machine.output) Group.t array -> unit) option;
  trace_capacity : int option;
  quiet : bool;
  broken_2pc : bool;
  coordinator_crash : int -> crash_point;
}

let default_config ~shards ~ops =
  {
    shards;
    replicas = 3;
    backend = Rsm.Backend.ben_or;
    batch = 16;
    seed = 1L;
    latency = Netsim.Latency.Uniform (1, 10);
    ops;
    arrival = Closed_loop { think = 10 };
    ack_timeout = 2_000;
    max_events = 20_000_000;
    store = None;
    inject = None;
    trace_capacity = None;
    quiet = true;
    broken_2pc = false;
    coordinator_crash = (fun _ -> No_crash);
  }

(* The recovery daemon's period, and how long a transaction must sit
   idle before the daemon adopts it. *)
let recovery_interval = 500
let recovery_timeout = 1_500

type shard_report = {
  sr_shard : int;
  sr_violations : Rsm.Checker.violation list;
  sr_completeness : Rsm.Checker.violation list;
  sr_durability : Rsm.Checker.violation list;
  sr_digests_agree : bool;
  sr_digests : string array;
  sr_applied : int;
  sr_delivered : int array;
  sr_slots : int;
  sr_instances : int;
  sr_messages_sent : int;
  sr_messages_delivered : int;
  sr_crashed : int list;
  sr_restarted : int list;
  sr_store_stats : Store.Disk.stats array;
}

type report = {
  engine_outcome : Dsim.Engine.outcome;
  virtual_time : int;
  singles_submitted : int;
  singles_acked : int;
  txs_started : int;
  txs_committed : int;
  txs_aborted : int;
  atomicity : Checker.violation list;
  tx_completeness : Checker.violation list;
  shard_reports : shard_report array;
  single_latencies : float list;
  tx_latencies : float list;
  abort_rate : float;
  trace : Dsim.Trace.t;
  groups : (Cmd.t, Machine.t, Machine.output) Group.t array;
  router : Router.t;
}

let kv_key : Obj.Kv.op -> string = function
  | Get k -> k
  | Set (k, _) -> k
  | Cas { key; _ } -> key

(* Per-transaction runtime record.  Everything that matters for safety
   is re-derivable from the group logs (votes, decision, outcomes); the
   mutable fields below are driver bookkeeping, which is why an
   [abandoned] transaction — simulating a dead coordinator — can still
   be finished by the recovery daemon. *)
type tx_rt = {
  tx : Cmd.tx;
  coord : int;
  started_at : int;
  mutable votes : (int * bool) list;  (* shard -> recorded vote *)
  mutable decision : bool option;  (* canonical, from the coord log *)
  mutable ready : (int * int) list;  (* shard -> ready record cid *)
  mutable tdone : bool;
  mutable abandoned : bool;
  mutable last_activity : int;
  mutable attempt : int;
}

type single_rt = {
  s_shard : int;
  s_cmd : Cmd.t;
  s_started_at : int;
  mutable s_done : bool;
  mutable s_attempt : int;
}

(* What a shard's group runs on each replica.  The machine is mutable:
   [apply] returns the same value, and every replica and every reset
   gets its own [create], since one shared initial value would alias all
   replicas. *)
let replica_machine ~shard =
  {
    Group.fresh = (fun () -> Machine.create ~shard);
    apply = (fun m c -> (m, Machine.apply m c));
    snapshot = Machine.snapshot;
    restore = Machine.restore;
    op_to_string = Cmd.to_string;
    op_of_string = Cmd.of_string;
    digest = Machine.digest;
  }

let run cfg =
  if cfg.shards < 1 then invalid_arg "Shard.Runner.run: need at least one shard";
  Rsm.Runner.check_ops ~who:"Shard.Runner.run" cfg.ops;
  let eng =
    Dsim.Engine.create ~seed:cfg.seed ?trace_capacity:cfg.trace_capacity
      ~tracing:(not cfg.quiet) ()
  in
  let router = Router.create ~shards:cfg.shards in
  let xchecker = Checker.create () in
  let txs : (int, tx_rt) Hashtbl.t = Hashtbl.create 256 in
  let unfinished : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let singles : (int, single_rt) Hashtbl.t = Hashtbl.create 1024 in
  let clients = Array.length cfg.ops in
  let total_ops = Array.fold_left (fun a l -> a + List.length l) 0 cfg.ops in
  let completed = ref 0 in
  let all_completed = Dsim.Engine.queue eng in
  let singles_acked = ref 0 in
  let txs_committed = ref 0 in
  let txs_aborted = ref 0 in
  let single_latencies = ref [] in
  let tx_latencies = ref [] in
  let groups_ref = ref [||] in
  let group s = !groups_ref.(s) in
  (* inject at a live replica, rotating by [cid + attempt] so that
     re-submissions spread *)
  let submit s ~attempt ~cid op =
    ignore (Group.submit (group s) ~start:(cid + attempt) ~cid op : bool)
  in
  let now () = Dsim.Engine.now eng in
  (* closed-loop continuation, filled in by the client layer below *)
  let op_completed_hook = ref (fun (_client : int) -> ()) in

  (* {2 2PC driver} *)
  let submit_decide trt commit =
    let txid = trt.tx.Cmd.txid in
    trt.attempt <- trt.attempt + 1;
    submit trt.coord ~attempt:trt.attempt ~cid:(Cmd.decide_cid ~txid ~commit)
      (Cmd.Decide { txid; commit })
  in
  let submit_outcomes trt commit =
    let txid = trt.tx.Cmd.txid in
    List.iter
      (fun s ->
        if s <> trt.coord && not (List.mem_assoc s trt.ready) then begin
          trt.attempt <- trt.attempt + 1;
          submit s ~attempt:trt.attempt ~cid:(Cmd.outcome_cid ~txid ~commit)
            (Cmd.Outcome { txid; commit })
        end)
      trt.tx.Cmd.participants
  in
  let submit_prepare trt s =
    let txid = trt.tx.Cmd.txid in
    trt.attempt <- trt.attempt + 1;
    submit s ~attempt:trt.attempt ~cid:(Cmd.prepare_cid ~txid) (Cmd.Prepare trt.tx)
  in
  (* Re-derive the next protocol step from what the logs recorded so
     far.  Idempotent (cids de-duplicate), so the per-tx retry timer,
     the event handlers and the recovery daemon can all call it. *)
  let reconcile trt =
    if not trt.tdone then begin
      trt.last_activity <- now ();
      match trt.decision with
      | None ->
          let missing =
            List.filter
              (fun s -> not (List.mem_assoc s trt.votes))
              trt.tx.Cmd.participants
          in
          if missing = [] then
            submit_decide trt (List.for_all snd trt.votes)
          else List.iter (fun s -> submit_prepare trt s) missing
      | Some commit ->
          if not (List.mem_assoc trt.coord trt.ready) then
            submit_decide trt commit;
          submit_outcomes trt commit
    end
  in
  let finalize trt =
    if not trt.tdone then begin
      trt.tdone <- true;
      Hashtbl.remove unfinished trt.tx.Cmd.txid;
      let commit = Option.value trt.decision ~default:false in
      if commit then begin
        incr txs_committed;
        tx_latencies :=
          float_of_int (now () - trt.started_at) :: !tx_latencies
      end
      else incr txs_aborted;
      (* durability obligations: the records this ack relies on *)
      List.iter
        (fun s ->
          Group.record_acked (group s)
            ~cid:(Cmd.prepare_cid ~txid:trt.tx.Cmd.txid))
        trt.tx.Cmd.participants;
      List.iter (fun (s, cid) -> Group.record_acked (group s) ~cid) trt.ready;
      incr completed;
      Dsim.Engine.signal all_completed;
      !op_completed_hook (Rsm.Runner.client_of_cid trt.tx.Cmd.txid)
    end
  in
  let check_finalize trt =
    if
      (not trt.tdone)
      && trt.decision <> None
      && List.for_all
           (fun s -> List.mem_assoc s trt.ready)
           trt.tx.Cmd.participants
    then finalize trt
  in

  (* {2 Group event dispatch} *)
  let on_first_apply s op (out : Machine.output) =
    match (op, out) with
    | Cmd.Prepare tx, Machine.O_vote v -> (
        Checker.record_vote xchecker ~txid:tx.Cmd.txid ~shard:s ~vote:v;
        match Hashtbl.find_opt txs tx.Cmd.txid with
        | None -> ()
        | Some trt ->
            trt.last_activity <- now ();
            if not (List.mem_assoc s trt.votes) then
              trt.votes <- (s, v) :: trt.votes;
            if trt.decision = None && not trt.abandoned then
              if cfg.broken_2pc && v then
                (* the deliberate bug: commit on the first yes vote *)
                submit_decide trt true
              else if
                List.for_all
                  (fun p -> List.mem_assoc p trt.votes)
                  trt.tx.Cmd.participants
              then begin
                submit_decide trt (List.for_all snd trt.votes);
                if cfg.coordinator_crash tx.Cmd.txid = After_decide then
                  trt.abandoned <- true
              end)
    | Cmd.Decide { txid; _ }, Machine.O_decided canonical -> (
        Checker.record_outcome xchecker ~txid ~shard:s ~committed:canonical;
        match Hashtbl.find_opt txs txid with
        | None -> ()
        | Some trt ->
            trt.last_activity <- now ();
            if trt.decision = None then trt.decision <- Some canonical;
            if not trt.abandoned then submit_outcomes trt canonical)
    | Cmd.Outcome { txid; _ }, Machine.O_outcome c -> (
        Checker.record_outcome xchecker ~txid ~shard:s ~committed:c;
        match Hashtbl.find_opt txs txid with
        | None -> ()
        | Some trt ->
            trt.last_activity <- now ();
            if trt.decision = None then trt.decision <- Some c)
    | Cmd.Kv _, _ -> ()
    | _, _ -> ()
  in
  let on_ready s ~cid =
    match Cmd.kind_of_cid cid with
    | Cmd.K_kv -> (
        match Hashtbl.find_opt singles cid with
        | Some srt when not srt.s_done ->
            srt.s_done <- true;
            Group.record_acked (group srt.s_shard) ~cid;
            incr singles_acked;
            single_latencies :=
              float_of_int (now () - srt.s_started_at) :: !single_latencies;
            incr completed;
            Dsim.Engine.signal all_completed;
            !op_completed_hook (Rsm.Runner.client_of_cid (cid / 8))
        | _ -> ())
    | Cmd.K_prepare _ -> ()
    | Cmd.K_decide (txid, _) | Cmd.K_outcome (txid, _) -> (
        match Hashtbl.find_opt txs txid with
        | None -> ()
        | Some trt ->
            trt.last_activity <- now ();
            if not (List.mem_assoc s trt.ready) then
              trt.ready <- (s, cid) :: trt.ready;
            check_finalize trt)
  in
  let seed_of_shard s =
    Int64.add cfg.seed (Int64.mul (Int64.of_int (s + 1)) 0x9E3779B97F4A7C15L)
  in
  (* both completion hooks run in a fresh event, so they may re-enter
     [submit] *)
  let defer f = Dsim.Engine.schedule eng ~delay:0 f in
  groups_ref :=
    Array.init cfg.shards (fun s ->
        Group.create ~engine:eng ~label:(Printf.sprintf "shard %d" s)
          ~n:cfg.replicas ~backend:cfg.backend ~seed:(seed_of_shard s)
          ~latency:cfg.latency ~batch:cfg.batch ~store:cfg.store
          ~machine:(replica_machine ~shard:s)
          ~on_first_apply:(fun op out -> defer (fun () -> on_first_apply s op out))
          ~on_ready:(fun ~cid -> defer (fun () -> on_ready s ~cid)));

  (* {2 Launching operations} *)
  let start_single ~client ~seq (kc : Obj.Kv.op) =
    let cid = Cmd.kv_cid ~client ~seq in
    let s = Router.shard_of_key router (kv_key kc) in
    let srt =
      {
        s_shard = s;
        s_cmd = Cmd.Kv kc;
        s_started_at = now ();
        s_done = false;
        s_attempt = 0;
      }
    in
    Hashtbl.replace singles cid srt;
    submit s ~attempt:0 ~cid srt.s_cmd;
    let rec retry () =
      if not srt.s_done then begin
        srt.s_attempt <- srt.s_attempt + 1;
        submit s ~attempt:srt.s_attempt ~cid srt.s_cmd;
        Dsim.Engine.schedule eng ~delay:cfg.ack_timeout retry
      end
    in
    Dsim.Engine.schedule eng ~delay:cfg.ack_timeout retry
  in
  let start_tx ~client ~seq wops =
    let txid = Cmd.base ~client ~seq in
    let tx = Router.make_tx router ~txid wops in
    Checker.record_tx xchecker ~txid ~participants:tx.Cmd.participants;
    let trt =
      {
        tx;
        coord = Router.coordinator tx;
        started_at = now ();
        votes = [];
        decision = None;
        ready = [];
        tdone = false;
        abandoned = false;
        last_activity = now ();
        attempt = 0;
      }
    in
    Hashtbl.replace txs txid trt;
    Hashtbl.replace unfinished txid ();
    List.iter (fun s -> submit_prepare trt s) tx.Cmd.participants;
    (match cfg.coordinator_crash txid with
    | After_prepare -> trt.abandoned <- true
    | No_crash | After_decide -> ());
    let rec retry () =
      if (not trt.tdone) && not trt.abandoned then begin
        reconcile trt;
        Dsim.Engine.schedule eng ~delay:cfg.ack_timeout retry
      end
    in
    Dsim.Engine.schedule eng ~delay:cfg.ack_timeout retry
  in
  let launch ~client ~seq = function
    | Single kc -> start_single ~client ~seq kc
    | Tx wops -> start_tx ~client ~seq wops
  in

  (* {2 Clients} — callback state machines, no fibers. *)
  let queues = Array.map (fun l -> ref l) cfg.ops in
  let seqs = Array.make clients 0 in
  (match cfg.arrival with
  | Closed_loop { think } ->
      let issue_next c =
        match !(queues.(c)) with
        | [] -> ()
        | op :: rest ->
            queues.(c) <- ref rest;
            let seq = seqs.(c) in
            seqs.(c) <- seq + 1;
            launch ~client:c ~seq op
      in
      (op_completed_hook :=
         fun c ->
           if c >= 0 && c < clients then
             Dsim.Engine.schedule eng ~delay:(max 1 think) (fun () ->
                 issue_next c));
      Array.iteri
        (fun c _ ->
          (* stagger the initial herd deterministically *)
          Dsim.Engine.schedule eng ~delay:(c mod 16) (fun () -> issue_next c))
        queues
  | Open_loop { mean_gap } ->
      let master = Dsim.Rng.create cfg.seed in
      Array.iteri
        (fun c ops ->
          let rng = Dsim.Rng.split master in
          let t = ref (c mod 16) in
          List.iteri
            (fun seq op ->
              t :=
                !t
                + max 1
                    (int_of_float (Dsim.Rng.exponential rng ~mean:mean_gap));
              Dsim.Engine.schedule eng ~delay:!t (fun () ->
                  launch ~client:c ~seq op))
            !ops)
        queues);

  (* {2 Recovery daemon} — adopts transactions whose coordinator went
     quiet, finishing them from the recorded log state. *)
  let finished = ref false in
  let rec daemon () =
    if not !finished then begin
      let stale =
        Hashtbl.fold (fun txid () acc -> txid :: acc) unfinished []
        |> List.sort compare
      in
      List.iter
        (fun txid ->
          match Hashtbl.find_opt txs txid with
          | Some trt
            when (not trt.tdone)
                 && now () - trt.last_activity >= recovery_timeout ->
              Dsim.Engine.emitk eng ~tag:"2pc" (fun () ->
                  Printf.sprintf "recovery adopts tx %d" txid);
              reconcile trt
          | _ -> ())
        stale;
      Dsim.Engine.schedule eng ~delay:recovery_interval daemon
    end
  in
  Dsim.Engine.schedule eng ~delay:recovery_interval daemon;

  (* supervisor: once every operation completed, wind the groups down *)
  ignore
    (Dsim.Engine.spawn eng ~name:"supervisor" (fun _ctx ->
         Dsim.Engine.await_cond all_completed (fun () -> !completed = total_ops);
         finished := true;
         Array.iter Group.stop !groups_ref)
      : Dsim.Engine.pid);

  Option.iter (fun inject -> inject !groups_ref) cfg.inject;

  let engine_outcome = Dsim.Engine.run ~max_events:cfg.max_events eng in
  let shard_reports =
    Array.mapi
      (fun s g ->
        let digests = Group.digests g in
        {
          sr_shard = s;
          sr_violations = Group.violations g;
          sr_completeness = Group.completeness g;
          sr_durability = Group.durability g;
          sr_digests_agree = Group.digests_agree g digests;
          sr_digests = digests;
          sr_applied = Group.applied_unique g;
          sr_delivered = Group.delivered g;
          sr_slots = Group.slots g;
          sr_instances = Group.instances g;
          sr_messages_sent = Group.messages_sent g;
          sr_messages_delivered = Group.messages_delivered g;
          sr_crashed = Group.crashed g;
          sr_restarted = Group.restarted g;
          sr_store_stats = Array.map Store.Disk.stats (Group.disks g);
        })
      !groups_ref
  in
  let finished_txs = !txs_committed + !txs_aborted in
  {
    engine_outcome;
    virtual_time = Dsim.Engine.now eng;
    singles_submitted = Hashtbl.length singles;
    singles_acked = !singles_acked;
    txs_started = Checker.txs_started xchecker;
    txs_committed = !txs_committed;
    txs_aborted = !txs_aborted;
    atomicity = Checker.check xchecker;
    tx_completeness = Checker.check_complete xchecker;
    shard_reports;
    single_latencies = List.rev !single_latencies;
    tx_latencies = List.rev !tx_latencies;
    abort_rate =
      (if finished_txs = 0 then 0.
       else float_of_int !txs_aborted /. float_of_int finished_txs);
    trace = Dsim.Engine.trace eng;
    groups = !groups_ref;
    router;
  }
