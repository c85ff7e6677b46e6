type store_config = Group.store_config = {
  policy : Store.Policy.t;
  snapshot_every : int;
  ack_before_fsync : bool;
}

let default_store_config = Group.default_store_config

type ('op, 'st) config = {
  backend : Backend.t;
  n : int;
  batch : int;
  seed : int64;
  latency : Netsim.Latency.t;
  crash_schedule : (int * int) list;
  restart_schedule : (int * int) list;
  inject : (('op, 'st, string) Group.t -> unit) option;
  trace_capacity : int option;
  quiet : bool;
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

(* Command ids: the client in the high bits, its sequence number in the
   low [seq_bits]. *)
let seq_bits = 20
let cid ~client ~seq = (client lsl seq_bits) lor seq
let client_of_cid cid = cid lsr seq_bits

let check_ops ~who ops =
  if Array.exists (fun l -> List.compare_length_with l (1 lsl seq_bits) >= 0) ops
  then invalid_arg (who ^ ": a client has 2^20 or more ops")

let run (type op st) (machine : (op, st, string) Group.machine)
    (cfg : (op, st) config) : op report =
  check_ops ~who:"Runner.run" cfg.ops;
  let eng =
    Dsim.Engine.create ~seed:cfg.seed ?trace_capacity:cfg.trace_capacity
      ~tracing:(not cfg.quiet) ()
  in
  let g =
    Group.create ~engine:eng ~label:"" ~n:cfg.n ~backend:cfg.backend
      ~seed:cfg.seed ~latency:cfg.latency ~batch:cfg.batch ~store:cfg.store
      ~machine
      ~on_first_apply:(fun _ _ -> ())
      ~on_ready:(fun ~cid:_ -> ())
  in
  (* the response is filled in from the group after the run *)
  let hists : (int, op hist) Hashtbl.t = Hashtbl.create 64 in
  let clients = Array.length cfg.ops in
  let done_clients = ref 0 in
  let clients_done = Dsim.Engine.queue eng in
  let latencies = ref [] in
  let client_body c ctx =
    List.iteri
      (fun k op ->
        let cid = cid ~client:c ~seq:k in
        let t0 = Dsim.Engine.now eng in
        let h =
          {
            h_cid = cid;
            h_client = c;
            h_op = op;
            h_invoked = t0;
            h_resp = None;
            h_returned = None;
          }
        in
        Hashtbl.replace hists cid h;
        let rec submit_round attempt =
          (* rotate over live replicas, starting at a client-specific one *)
          ignore (Group.submit g ~start:(c + attempt) ~cid op : bool);
          let deadline = Dsim.Engine.now eng + cfg.ack_timeout in
          let got_ack =
            Dsim.Engine.poll_every ctx ~period:10 (fun () ->
                if Group.is_ready g ~cid then Some true
                else if Dsim.Engine.now eng >= deadline then Some false
                else None)
          in
          if not got_ack then submit_round (attempt + 1)
        in
        submit_round 0;
        Group.record_acked g ~cid;
        Hashtbl.replace hists cid { h with h_returned = Some (Dsim.Engine.now eng) };
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
         Group.stop g)
      : Dsim.Engine.pid);
  List.iter
    (fun (time, victim) ->
      Dsim.Engine.schedule eng ~delay:time (fun () -> Group.crash g victim))
    cfg.crash_schedule;
  List.iter
    (fun (time, victim) ->
      Dsim.Engine.schedule eng ~delay:time (fun () -> Group.restart g victim))
    cfg.restart_schedule;
  Option.iter (fun inject -> inject g) cfg.inject;
  let engine_outcome = Dsim.Engine.run ~max_events:cfg.max_events eng in
  let history =
    Hashtbl.fold
      (fun cid h acc -> { h with h_resp = Group.first_output g ~cid } :: acc)
      hists []
    |> List.sort (fun a b -> compare (a.h_invoked, a.h_cid) (b.h_invoked, b.h_cid))
  in
  let digests = Group.digests g in
  {
    engine_outcome;
    virtual_time = Dsim.Engine.now eng;
    submitted = Hashtbl.length hists;
    acked = List.length !latencies;
    delivered = Group.delivered g;
    slots = Group.slots g;
    instances = Group.instances g;
    messages_sent = Group.messages_sent g;
    messages_delivered = Group.messages_delivered g;
    crashed = Group.crashed g;
    restarted = Group.restarted g;
    violations = Group.violations g;
    completeness = Group.completeness g;
    durability = Group.durability g;
    digests_agree = Group.digests_agree g digests;
    digests;
    history;
    latencies = List.rev !latencies;
    trace = Dsim.Engine.trace eng;
    store_stats = Array.map Store.Disk.stats (Group.disks g);
    disks = Group.disks g;
  }
