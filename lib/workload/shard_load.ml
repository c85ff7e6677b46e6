type summary = {
  backend_name : string;
  shards : int;
  replicas : int;
  clients : int;
  total_ops : int;
  singles_acked : int;
  txs_committed : int;
  txs_aborted : int;
  abort_rate : float;
  virtual_time : int;
  throughput : float;
  per_shard_applied : int array;
  single_latency : Stats.summary option;
  tx_latency : Stats.summary option;
  violations : int;
  ok : bool;
}

let summarize (cfg : Shard.Runner.config) (r : Shard.Runner.report) =
  let per_shard =
    Array.fold_left
      (fun acc (sr : Shard.Runner.shard_report) ->
        acc
        + List.length sr.Shard.Runner.sr_violations
        + List.length sr.Shard.Runner.sr_completeness
        + List.length sr.Shard.Runner.sr_durability)
      0 r.Shard.Runner.shard_reports
  in
  let violations =
    per_shard
    + List.length r.Shard.Runner.atomicity
    + List.length r.Shard.Runner.tx_completeness
  in
  let digests_agree =
    Array.for_all
      (fun (sr : Shard.Runner.shard_report) -> sr.Shard.Runner.sr_digests_agree)
      r.Shard.Runner.shard_reports
  in
  let done_ops = r.Shard.Runner.singles_acked + r.Shard.Runner.txs_committed in
  {
    backend_name = Rsm.Backend.name cfg.Shard.Runner.backend;
    shards = cfg.Shard.Runner.shards;
    replicas = cfg.Shard.Runner.replicas;
    clients = Array.length cfg.Shard.Runner.ops;
    total_ops =
      Array.fold_left (fun a l -> a + List.length l) 0 cfg.Shard.Runner.ops;
    singles_acked = r.Shard.Runner.singles_acked;
    txs_committed = r.Shard.Runner.txs_committed;
    txs_aborted = r.Shard.Runner.txs_aborted;
    abort_rate = r.Shard.Runner.abort_rate;
    virtual_time = r.Shard.Runner.virtual_time;
    throughput =
      Load.throughput ~acked:done_ops ~virtual_time:r.Shard.Runner.virtual_time;
    per_shard_applied =
      Array.map
        (fun (sr : Shard.Runner.shard_report) -> sr.Shard.Runner.sr_applied)
        r.Shard.Runner.shard_reports;
    single_latency = Load.latency_opt r.Shard.Runner.single_latencies;
    tx_latency = Load.latency_opt r.Shard.Runner.tx_latencies;
    violations;
    ok = (violations = 0 && digests_agree);
  }

let config ?(shards = 4) ?(replicas = 3) ?(batch = 16) ?(seed = 1) ?load
    ?arrival ?store ?inject ?(broken_2pc = false) ?ack_timeout ?max_events
    ?(quiet = true) ~backend () =
  let l =
    match load with
    | Some l -> { l with Load.shards; seed }
    | None -> { Load.default with shards; seed }
  in
  let ops = Load.gen_shard_ops l in
  let base = Shard.Runner.default_config ~shards ~ops in
  {
    base with
    Shard.Runner.replicas;
    backend;
    batch;
    seed = Int64.of_int seed;
    arrival = Option.value arrival ~default:base.Shard.Runner.arrival;
    store;
    inject;
    broken_2pc;
    ack_timeout = Option.value ack_timeout ~default:base.Shard.Runner.ack_timeout;
    max_events = Option.value max_events ~default:base.Shard.Runner.max_events;
    quiet;
  }

let run cfg =
  let r = Shard.Runner.run cfg in
  (r, summarize cfg r)

let sweep_shards ~load ~seeds ppf =
  (* The workload (clients x ops) is held fixed while the shard count
     varies, so the table shows how the same traffic scales when the
     keyspace is split. *)
  let cell shards =
    let runs =
      List.init seeds (fun s ->
          snd
            (run
               (config ~shards ~seed:(s + 1) ~load
                  ~backend:Rsm.Backend.ben_or ())))
    in
    let fmean f = Stats.mean (List.map f runs) in
    let imean f =
      int_of_float (Float.round (fmean (fun r -> float_of_int (f r))))
    in
    {
      (List.hd runs) with
      singles_acked = imean (fun r -> r.singles_acked);
      txs_committed = imean (fun r -> r.txs_committed);
      txs_aborted = imean (fun r -> r.txs_aborted);
      abort_rate = fmean (fun r -> r.abort_rate);
      virtual_time = imean (fun r -> r.virtual_time);
      throughput = fmean (fun r -> r.throughput);
      single_latency = None;
      tx_latency = None;
      violations = List.fold_left (fun a r -> a + r.violations) 0 runs;
      ok = List.for_all (fun r -> r.ok) runs;
    }
  in
  let cells = List.map cell [ 1; 2; 4 ] in
  Table.print ~ppf
    ~title:
      (Printf.sprintf
         "Sharded throughput vs shard count (%d clients x %d ops, %d%% tx, %d \
          seeds)"
         load.Load.clients load.Load.ops_per_client load.Load.tx_pct seeds)
    ~headers:
      [ "backend"; "shards"; "acked"; "tx ok/ab"; "abort%"; "vtime"; "ops/kvt"; "ok" ]
    (List.map
       (fun c ->
         [
           c.backend_name;
           string_of_int c.shards;
           string_of_int c.singles_acked;
           Printf.sprintf "%d/%d" c.txs_committed c.txs_aborted;
           Printf.sprintf "%.0f" (100. *. c.abort_rate);
           string_of_int c.virtual_time;
           Printf.sprintf "%.1f" c.throughput;
           (if c.ok then "yes" else "NO");
         ])
       cells);
  cells
