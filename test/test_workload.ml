(* Tests for the statistics, table rendering and experiment plumbing. *)

let check = Alcotest.check
let fcheck name = check (Alcotest.float 1e-9) name

let summarize_known_values () =
  let s = Workload.Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  fcheck "mean" 3.0 s.Workload.Stats.mean;
  fcheck "median" 3.0 s.Workload.Stats.median;
  fcheck "min" 1.0 s.Workload.Stats.min;
  fcheck "max" 5.0 s.Workload.Stats.max;
  check Alcotest.int "count" 5 s.Workload.Stats.count;
  fcheck "stddev" (sqrt 2.0) s.Workload.Stats.stddev

let summarize_single () =
  let s = Workload.Stats.summarize [ 7.0 ] in
  fcheck "mean" 7.0 s.Workload.Stats.mean;
  fcheck "stddev" 0.0 s.Workload.Stats.stddev;
  fcheck "p99" 7.0 s.Workload.Stats.p99

let summarize_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty") (fun () ->
      ignore (Workload.Stats.summarize [] : Workload.Stats.summary))

let percentiles () =
  let sorted = Array.init 100 (fun i -> float_of_int (i + 1)) in
  fcheck "p50" 50.0 (Workload.Stats.percentile sorted 0.5);
  fcheck "p90" 90.0 (Workload.Stats.percentile sorted 0.9);
  fcheck "p99" 99.0 (Workload.Stats.percentile sorted 0.99);
  fcheck "p100" 100.0 (Workload.Stats.percentile sorted 1.0)

let of_ints_matches () =
  let a = Workload.Stats.of_ints [ 1; 2; 3 ] in
  let b = Workload.Stats.summarize [ 1.0; 2.0; 3.0 ] in
  fcheck "same mean" b.Workload.Stats.mean a.Workload.Stats.mean

let fraction_behaviour () =
  fcheck "empty" 0.0 (Workload.Stats.fraction []);
  fcheck "half" 0.5 (Workload.Stats.fraction [ true; false ]);
  fcheck "all" 1.0 (Workload.Stats.fraction [ true; true ])

let table_renders_aligned () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Workload.Table.print ~ppf ~title:"T" ~headers:[ "a"; "bb" ]
    [ [ "1"; "2" ]; [ "333"; "4" ] ];
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  check Alcotest.bool "has title" true (Astring_like.contains out "T");
  check Alcotest.bool "has row" true (Astring_like.contains out "333");
  check Alcotest.bool "has header" true (Astring_like.contains out "bb")

let csv_quotes_properly () =
  let out =
    Workload.Table.csv ~headers:[ "x"; "y" ]
      [ [ "plain"; "with,comma" ]; [ "with\"quote"; "ok" ] ]
  in
  check Alcotest.bool "comma quoted" true (Astring_like.contains out "\"with,comma\"");
  check Alcotest.bool "quote doubled" true (Astring_like.contains out "\"with\"\"quote\"");
  check Alcotest.bool "header line" true (Astring_like.contains out "x,y")

let null_formatter = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let e4_shape_is_quadratic () =
  let rows = Workload.Experiments.E4.run null_formatter in
  let kings =
    List.filter (fun r -> r.Workload.Experiments.E4.algorithm = "king") rows
  in
  let queens =
    List.filter (fun r -> r.Workload.Experiments.E4.algorithm = "queen") rows
  in
  check Alcotest.bool "several sizes per algorithm" true
    (List.length kings >= 4 && List.length queens >= 4);
  List.iter
    (fun r ->
      check Alcotest.bool "ratio positive" true
        (r.Workload.Experiments.E4.messages_over_n2 > 0.0))
    rows;
  (* msgs/n^2 grows with n for a fixed algorithm (more phases as t grows). *)
  let grows rows =
    let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
    last.Workload.Experiments.E4.messages_over_n2
    > first.Workload.Experiments.E4.messages_over_n2
  in
  check Alcotest.bool "king ratio grows" true (grows kings);
  check Alcotest.bool "queen ratio grows" true (grows queens);
  (* Queen uses 2 sync rounds per phase, King 3. *)
  List.iter
    (fun r ->
      check Alcotest.int "king 3 rounds/phase"
        (3 * r.Workload.Experiments.E4.template_rounds)
        r.Workload.Experiments.E4.sync_rounds)
    kings;
  List.iter
    (fun r ->
      check Alcotest.int "queen 2 rounds/phase"
        (2 * r.Workload.Experiments.E4.template_rounds)
        r.Workload.Experiments.E4.sync_rounds)
    queens

let e3_counterexample_separates () =
  check Alcotest.bool "separation holds" true
    (Workload.Experiments.E3.counterexample null_formatter)

let e7_separation_cases () =
  let rows = Workload.Experiments.E7.run ~scale:Workload.Experiments.Quick null_formatter in
  check Alcotest.int "five cases" 5 (List.length rows);
  List.iter
    (fun r ->
      check Alcotest.bool r.Workload.Experiments.E7.case true
        r.Workload.Experiments.E7.clean)
    rows

let histogram_bins () =
  let rows = Workload.Stats.ascii_histogram ~bins:4 ~width:8 [ 0.; 1.; 2.; 3.; 3.9 ] in
  check Alcotest.int "four bins" 4 (List.length rows);
  let total = List.fold_left (fun acc (_, c, _) -> acc + c) 0 rows in
  check Alcotest.int "all values binned" 5 total;
  let _, _, longest_bar =
    List.fold_left
      (fun ((_, bc, _) as best) ((_, c, _) as row) -> if c > bc then row else best)
      (List.hd rows) rows
  in
  check Alcotest.int "peak bar at full width" 8 (String.length longest_bar)

let histogram_degenerate () =
  check Alcotest.int "empty input, no rows" 0
    (List.length (Workload.Stats.ascii_histogram []));
  let rows = Workload.Stats.ascii_histogram ~bins:5 [ 2.0; 2.0; 2.0 ] in
  let total = List.fold_left (fun acc (_, c, _) -> acc + c) 0 rows in
  check Alcotest.int "constant input all in one bin" 3 total

(* --- the shared Load generator ------------------------------------- *)

let load_cdf_monotone () =
  let cdf = Workload.Load.make_cdf ~keys:16 ~s:1.1 in
  check Alcotest.int "16 entries" 16 (Array.length cdf);
  Array.iteri
    (fun i x ->
      if i > 0 then
        check Alcotest.bool "monotone" true (x >= cdf.(i - 1)))
    cdf;
  fcheck "sums to one" 1.0 cdf.(15);
  (* skew: the hottest key carries more mass than a uniform share *)
  check Alcotest.bool "head is hot" true (cdf.(0) > 1.0 /. 16.0)

let load_gen_ops_deterministic () =
  let gen () =
    Workload.Load.gen_kv_ops ~shards:4 ~keys:64 ~zipf_s:1.1 ~seed:9L
      ~clients:6 ~commands:5 ()
  in
  check Alcotest.bool "same seed, same ops" true (gen () = gen ());
  let other =
    Workload.Load.gen_kv_ops ~shards:4 ~keys:64 ~zipf_s:1.1 ~seed:10L
      ~clients:6 ~commands:5 ()
  in
  check Alcotest.bool "different seed differs" true (gen () <> other)

let rsm_gen_ops_shard_aware () =
  let shards = 4 in
  let ops =
    Workload.Load.gen_kv_ops ~shards ~keys:64 ~zipf_s:1.1 ~seed:3L ~clients:16
      ~commands:8 ()
  in
  let router = Shard.Router.create ~shards in
  let hit = Array.make shards false in
  Array.iter
    (List.iter (fun cmd ->
         hit.(Shard.Router.shard_of_key router (Shard.Runner.kv_key cmd)) <-
           true))
    ops;
  Array.iteri
    (fun s h ->
      check Alcotest.bool (Printf.sprintf "shard %d gets traffic" s) true h)
    hit

let load_gen_shard_ops_shape () =
  let l =
    {
      Workload.Load.default with
      Workload.Load.clients = 8;
      ops_per_client = 6;
      keys = 64;
      tx_pct = 50;
      tx_span = 2;
      shards = 4;
      seed = 7;
    }
  in
  let ops = Workload.Load.gen_shard_ops l in
  check Alcotest.int "one list per client" 8 (Array.length ops);
  Array.iter
    (fun l -> check Alcotest.int "ops per client" 6 (List.length l))
    ops;
  let router = Shard.Router.create ~shards:4 in
  let txs = ref 0 and singles = ref 0 in
  Array.iter
    (List.iter (function
      | Shard.Runner.Single _ -> incr singles
      | Shard.Runner.Tx wops ->
          incr txs;
          let shards_touched =
            List.sort_uniq compare
              (List.map
                 (fun w ->
                   Shard.Router.shard_of_key router (Shard.Cmd.wop_key w))
                 wops)
          in
          check Alcotest.int "tx spans tx_span distinct shards" 2
            (List.length shards_touched)))
    ops;
  check Alcotest.bool "mix has both kinds" true (!txs > 0 && !singles > 0)

let shard_load_run_one () =
  let load =
    {
      Workload.Load.default with
      Workload.Load.clients = 8;
      ops_per_client = 3;
      keys = 32;
      tx_pct = 20;
      shards = 2;
    }
  in
  let _r, s =
    Workload.Shard_load.run
      (Workload.Shard_load.config ~shards:2 ~seed:5 ~load
         ~backend:Rsm.Backend.ben_or ())
  in
  check Alcotest.bool "clean run" true s.Workload.Shard_load.ok;
  check Alcotest.int "total ops" 24 s.Workload.Shard_load.total_ops;
  check Alcotest.int "all ops completed" 24
    (s.Workload.Shard_load.singles_acked + s.Workload.Shard_load.txs_committed
   + s.Workload.Shard_load.txs_aborted);
  check Alcotest.int "one applied count per shard" 2
    (Array.length s.Workload.Shard_load.per_shard_applied)

let seeds_scale () =
  check Alcotest.bool "full > quick" true
    (Workload.Experiments.seeds_for Workload.Experiments.Full
    > Workload.Experiments.seeds_for Workload.Experiments.Quick)

let suite =
  [
    Alcotest.test_case "summarize known values" `Quick summarize_known_values;
    Alcotest.test_case "summarize single" `Quick summarize_single;
    Alcotest.test_case "summarize empty rejected" `Quick summarize_empty_rejected;
    Alcotest.test_case "percentiles" `Quick percentiles;
    Alcotest.test_case "of_ints" `Quick of_ints_matches;
    Alcotest.test_case "fraction" `Quick fraction_behaviour;
    Alcotest.test_case "table rendering" `Quick table_renders_aligned;
    Alcotest.test_case "csv quoting" `Quick csv_quotes_properly;
    Alcotest.test_case "E4 quadratic shape" `Quick e4_shape_is_quadratic;
    Alcotest.test_case "E3 counterexample" `Quick e3_counterexample_separates;
    Alcotest.test_case "E7 separation" `Slow e7_separation_cases;
    Alcotest.test_case "histogram bins" `Quick histogram_bins;
    Alcotest.test_case "histogram degenerate" `Quick histogram_degenerate;
    Alcotest.test_case "load cdf monotone" `Quick load_cdf_monotone;
    Alcotest.test_case "load gen deterministic" `Quick load_gen_ops_deterministic;
    Alcotest.test_case "rsm gen_ops shard-aware" `Quick rsm_gen_ops_shard_aware;
    Alcotest.test_case "gen_shard_ops shape" `Quick load_gen_shard_ops_shape;
    Alcotest.test_case "shard_load run_one" `Quick shard_load_run_one;
    Alcotest.test_case "seed scaling" `Quick seeds_scale;
  ]
