(* Tests for the Exec.Pool domain worker pool: result ordering, error
   propagation, and the determinism boundary — the same seeds produce
   the same results at every job count, including when two domains run
   simulations concurrently. *)

let check = Alcotest.check

let ordering jobs () =
  let items = Array.init 25 Fun.id in
  let out = Exec.Pool.map ~jobs (fun x -> x * x) items in
  check
    (Alcotest.list Alcotest.int)
    "results in item order"
    (List.init 25 (fun i -> i * i))
    (Array.to_list out)

let ordering_at_cores () = ordering (Exec.Pool.cores ()) ()

let map_seeded_order () =
  let seeds = [| 7; 3; 11; 5 |] in
  let out = Exec.Pool.map_seeded ~jobs:3 ~seeds (fun s -> s * 10) in
  check
    (Alcotest.list Alcotest.int)
    "seed order regardless of completion order" [ 70; 30; 110; 50 ]
    (Array.to_list out)

let map_list_order () =
  let out = Exec.Pool.map_list ~jobs:3 (fun x -> -x) [ 1; 2; 3; 4; 5 ] in
  check (Alcotest.list Alcotest.int) "list order" [ -1; -2; -3; -4; -5 ] out

let exception_carries_seed () =
  let seeds = Array.init 8 (fun i -> 100 + i) in
  match
    Exec.Pool.map_seeded ~jobs:3 ~seeds (fun s ->
        if s = 103 then failwith "boom" else s)
  with
  | _ -> Alcotest.fail "expected Worker_error"
  | exception Exec.Pool.Worker_error { seed; exn; _ } ->
      check Alcotest.int "failing seed attached" 103 seed;
      check Alcotest.bool "original exception preserved" true
        (match exn with Failure m -> String.equal m "boom" | _ -> false)

let lowest_failing_index_wins () =
  (* Several items fail; the reported seed must be the lowest failing
     index, not whichever worker crashed first. *)
  let seeds = Array.init 12 Fun.id in
  match
    Exec.Pool.map_seeded ~jobs:4 ~seeds (fun s ->
        if s mod 3 = 2 then failwith "boom" else s)
  with
  | _ -> Alcotest.fail "expected Worker_error"
  | exception Exec.Pool.Worker_error { seed; _ } ->
      check Alcotest.int "deterministic failure choice" 2 seed

(* The RNG single-domain contract: each run owns its engine and RNG, so
   two domains running the same seed concurrently must produce
   identical results. *)
let same_seed_on_two_domains () =
  let run _ =
    snd
      (Workload.Rsm_load.run_one ~n:5 ~clients:3 ~commands:3 ~batch:4 ~seed:42
         ~backend:Rsm.Backend.ben_or ())
  in
  match Exec.Pool.map ~jobs:2 run [| 0; 1 |] with
  | [| a; b |] ->
      check Alcotest.bool "identical summaries from concurrent domains" true
        (a = b)
  | _ -> assert false

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let campaign_report_independent_of_jobs () =
  let cfg =
    {
      (Nemesis.Campaign.default_config ~n:5 ()) with
      Nemesis.Campaign.backends = [ Rsm.Backend.ben_or; Rsm.Backend.phase_king ];
      plans = 6;
      storage = true;
    }
  in
  let r1 = Nemesis.Campaign.run ~jobs:1 cfg in
  let r4 = Nemesis.Campaign.run ~jobs:4 cfg in
  check Alcotest.int "runs" 12 (Nemesis.Sweep.runs r4);
  (* Counts, failure lists and coverage are derived from the outcomes,
     so equal outcomes make them equal too. *)
  check Alcotest.bool "outcomes field-for-field" true
    (r1.Nemesis.Sweep.outcomes = r4.Nemesis.Sweep.outcomes);
  (* The stable printer is the CI diff contract: byte-identical. *)
  let stable r = Format.asprintf "%a" Nemesis.Campaign.pp_report_stable r in
  check Alcotest.string "stable report byte-identical" (stable r1) (stable r4)

let sweep_cells_independent_of_jobs () =
  let sweep jobs =
    Workload.Rsm_load.sweep_batches ~clients:4 ~commands:2 ~seeds:1
      ~batches:[ 1; 4 ]
      ~backends:[ Rsm.Backend.ben_or ]
      ~jobs null_ppf
  in
  check Alcotest.bool "identical cells" true (sweep 1 = sweep 3)

let suite =
  [
    Alcotest.test_case "ordering, jobs=1" `Quick (ordering 1);
    Alcotest.test_case "ordering, jobs=3" `Quick (ordering 3);
    Alcotest.test_case "ordering, jobs=cores" `Quick ordering_at_cores;
    Alcotest.test_case "map_seeded keeps seed order" `Quick map_seeded_order;
    Alcotest.test_case "map_list keeps list order" `Quick map_list_order;
    Alcotest.test_case "exception carries seed" `Quick exception_carries_seed;
    Alcotest.test_case "lowest failing index wins" `Quick
      lowest_failing_index_wins;
    Alcotest.test_case "same seed on two domains" `Quick
      same_seed_on_two_domains;
    Alcotest.test_case "campaign report independent of jobs" `Quick
      campaign_report_independent_of_jobs;
    Alcotest.test_case "sweep cells independent of jobs" `Quick
      sweep_cells_independent_of_jobs;
  ]
