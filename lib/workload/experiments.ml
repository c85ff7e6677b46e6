type scale = Quick | Full

let seeds_for = function Quick -> 10 | Full -> 40

let f2 x = Printf.sprintf "%.2f" x
let summ s = Format.asprintf "%a" Stats.pp_summary s

let split_inputs n = Array.init n (fun i -> i mod 2 = 0)

let staggered_crashes count = List.init count (fun k -> (10 + (13 * k), 2 * k))

(* ----------------------------------------------------------------- E1 -- *)

module E1 = struct
  type row = {
    n : int;
    seeds : int;
    identical_runs : int;
    all_correct : bool;
    mean_rounds_decomposed : float;
    mean_rounds_monolithic : float;
    mean_messages : float;
  }

  let run ?(scale = Quick) ppf =
    let seeds = seeds_for scale in
    let rows =
      List.map
        (fun n ->
          let identical = ref 0 in
          let correct = ref true in
          let rounds_d = ref [] and rounds_m = ref [] and msgs = ref [] in
          for seed = 1 to seeds do
            let base = Ben_or.Runner.default_config ~n ~inputs:(split_inputs n) in
            let base = { base with seed = Int64.of_int seed; max_rounds = 3000 } in
            let rd = Ben_or.Runner.run { base with mode = Ben_or.Runner.Decomposed } in
            let rm = Ben_or.Runner.run { base with mode = Ben_or.Runner.Monolithic } in
            let good r =
              r.Ben_or.Runner.violations = []
              && r.Ben_or.Runner.process_failures = []
              && Ben_or.Runner.all_decided_same r ~expected_live:n
            in
            if not (good rd && good rm) then correct := false;
            if
              rd.Ben_or.Runner.decisions = rm.Ben_or.Runner.decisions
              && rd.Ben_or.Runner.messages_sent = rm.Ben_or.Runner.messages_sent
            then incr identical;
            rounds_d := float_of_int rd.Ben_or.Runner.max_decision_round :: !rounds_d;
            rounds_m := float_of_int rm.Ben_or.Runner.max_decision_round :: !rounds_m;
            msgs := float_of_int rd.Ben_or.Runner.messages_sent :: !msgs
          done;
          {
            n;
            seeds;
            identical_runs = !identical;
            all_correct = !correct;
            mean_rounds_decomposed = Stats.mean !rounds_d;
            mean_rounds_monolithic = Stats.mean !rounds_m;
            mean_messages = Stats.mean !msgs;
          })
        [ 4; 8; 16 ]
    in
    Table.print ~ppf
      ~title:"E1: Ben-Or — decomposed (VAC+reconciliator) vs monolithic"
      ~headers:[ "n"; "seeds"; "identical"; "correct"; "rounds(dec)"; "rounds(mono)"; "msgs" ]
      (List.map
         (fun r ->
           [
             string_of_int r.n;
             string_of_int r.seeds;
             Printf.sprintf "%d/%d" r.identical_runs r.seeds;
             string_of_bool r.all_correct;
             f2 r.mean_rounds_decomposed;
             f2 r.mean_rounds_monolithic;
             f2 r.mean_messages;
           ])
         rows);
    rows
end

(* ----------------------------------------------------------------- E2 -- *)

module E2 = struct
  type row = {
    n : int;
    split : string;
    crashes : int;
    rounds : Stats.summary;
    messages : Stats.summary;
    all_correct : bool;
  }

  let input_splits n =
    [
      ("unanimous", Array.make n true);
      ("one-off", Array.init n (fun i -> i <> 0));
      ("even-split", split_inputs n);
    ]

  let run ?(scale = Quick) ppf =
    let seeds = seeds_for scale in
    let rows = ref [] in
    let figure_cell = ref [] in
    List.iter
      (fun n ->
        List.iter
          (fun (split, inputs) ->
            List.iter
              (fun crashes ->
                let rounds = ref [] and msgs = ref [] and ok = ref true in
                for seed = 1 to seeds do
                  let cfg =
                    {
                      (Ben_or.Runner.default_config ~n ~inputs) with
                      seed = Int64.of_int seed;
                      crash_schedule = staggered_crashes crashes;
                      max_rounds = 3000;
                    }
                  in
                  let r = Ben_or.Runner.run cfg in
                  let live = n - List.length r.Ben_or.Runner.crashed in
                  if
                    not
                      (r.Ben_or.Runner.violations = []
                      && Ben_or.Runner.all_decided_same r ~expected_live:live)
                  then ok := false;
                  rounds := float_of_int r.Ben_or.Runner.max_decision_round :: !rounds;
                  msgs := float_of_int r.Ben_or.Runner.messages_sent :: !msgs
                done;
                if n = 16 && String.equal split "even-split" && crashes = 0 then
                  figure_cell := !rounds;
                rows :=
                  {
                    n;
                    split;
                    crashes;
                    rounds = Stats.summarize !rounds;
                    messages = Stats.summarize !msgs;
                    all_correct = !ok;
                  }
                  :: !rows)
              (if n <= 4 then [ 0; 1 ] else [ 0; (n - 1) / 2 ]))
          (input_splits n))
      [ 4; 8; 16 ];
    let rows = List.rev !rows in
    Table.print ~ppf ~title:"E2: Ben-Or — rounds to decide"
      ~headers:[ "n"; "inputs"; "crashes"; "rounds"; "messages"; "correct" ]
      (List.map
         (fun r ->
           [
             string_of_int r.n;
             r.split;
             string_of_int r.crashes;
             summ r.rounds;
             f2 r.messages.Stats.mean;
             string_of_bool r.all_correct;
           ])
         rows);
    (* The "figure": the heavy-tailed rounds distribution of the hardest
       cell, as a terminal histogram. *)
    if !figure_cell <> [] then begin
      Format.fprintf ppf
        "F2: rounds-to-decide distribution, n=16 even-split (local coins)@.";
      Stats.pp_histogram ppf (Stats.ascii_histogram !figure_cell);
      Format.fprintf ppf "@."
    end;
    rows

  type coin_row = {
    coin : string;
    coin_n : int;
    coin_rounds : Stats.summary;
    coin_correct : bool;
  }

  (* E2b: the reconciliator-quality ablation — the paper's coin-flip
     reconciliator vs a weak common coin. *)
  let run_coins ?(scale = Quick) ppf =
    let seeds = seeds_for scale in
    let rows = ref [] in
    List.iter
      (fun n ->
        List.iter
          (fun (label, coin) ->
            let rounds = ref [] and ok = ref true in
            for seed = 1 to seeds do
              let cfg =
                {
                  (Ben_or.Runner.default_config ~n ~inputs:(split_inputs n)) with
                  seed = Int64.of_int seed;
                  common_coin = coin;
                  max_rounds = 3000;
                }
              in
              let r = Ben_or.Runner.run cfg in
              if
                not
                  (r.Ben_or.Runner.violations = []
                  && Ben_or.Runner.all_decided_same r ~expected_live:n)
              then ok := false;
              rounds := float_of_int r.Ben_or.Runner.max_decision_round :: !rounds
            done;
            rows :=
              {
                coin = label;
                coin_n = n;
                coin_rounds = Stats.summarize !rounds;
                coin_correct = !ok;
              }
              :: !rows)
          [
            ("local (paper Alg.6)", None);
            ("common, delta=0.5", Some 0.5);
            ("common, delta=1.0", Some 1.0);
          ])
      [ 8; 16 ];
    let rows = List.rev !rows in
    Table.print ~ppf
      ~title:"E2b: Ben-Or — reconciliator ablation (even-split inputs)"
      ~headers:[ "n"; "reconciliator"; "rounds"; "correct" ]
      (List.map
         (fun r ->
           [
             string_of_int r.coin_n;
             r.coin;
             summ r.coin_rounds;
             string_of_bool r.coin_correct;
           ])
         rows);
    rows
end

(* ----------------------------------------------------------------- E3 -- *)

module E3 = struct
  type row = {
    n : int;
    t : int;
    strategy : string;
    agreement : bool;
    object_violations : int;
    mean_first_commit_round : float;
  }

  let strategies =
    [
      ("silent", fun () -> Netsim.Byzantine.silent);
      ("random", fun () -> Netsim.Byzantine.random_of [| 0; 1; 2 |]);
      ("split-world", fun () -> Netsim.Byzantine.split_world 0 1);
      ("camp-splitter", fun () -> Phase_king.Strategies.camp_splitter);
      ("vote-inflater", fun () -> Phase_king.Strategies.vote_inflater 1);
    ]

  let run ?(scale = Quick) ?(algorithm = Phase_king.Runner.King) ppf =
    let seeds = seeds_for scale in
    let rows = ref [] in
    List.iter
      (fun n ->
        let t =
          match algorithm with
          | Phase_king.Runner.King -> (n - 1) / 3
          | Phase_king.Runner.Queen -> (n - 1) / 4
        in
        List.iter
          (fun (sname, strat) ->
            let agreement = ref true in
            let viols = ref 0 in
            let commit_rounds = ref [] in
            for seed = 1 to seeds do
              let base =
                match algorithm with
                | Phase_king.Runner.King ->
                    Phase_king.Runner.default_config ~n
                      ~inputs:(Array.init n (fun i -> i mod 2))
                | Phase_king.Runner.Queen ->
                    Phase_king.Runner.default_queen_config ~n
                      ~inputs:(Array.init n (fun i -> i mod 2))
              in
              let cfg =
                {
                  base with
                  Phase_king.Runner.byzantine = List.init t Fun.id;
                  strategy = strat ();
                  seed = Int64.of_int seed;
                }
              in
              let r = Phase_king.Runner.run cfg in
              let finals = List.map snd r.Phase_king.Runner.final_decisions in
              (match finals with
              | [] -> agreement := false
              | v0 :: rest -> if List.exists (fun v -> v <> v0) rest then agreement := false);
              viols := !viols + List.length r.Phase_king.Runner.violations;
              List.iter
                (fun (_, _, m) -> commit_rounds := float_of_int m :: !commit_rounds)
                r.Phase_king.Runner.first_commits
            done;
            rows :=
              {
                n;
                t;
                strategy = sname;
                agreement = !agreement;
                object_violations = !viols;
                mean_first_commit_round = Stats.mean !commit_rounds;
              }
              :: !rows)
          strategies)
      (match algorithm with
      | Phase_king.Runner.King -> [ 4; 7; 10; 13 ]
      | Phase_king.Runner.Queen -> [ 5; 9; 13; 17 ]);
    let rows = List.rev !rows in
    Table.print ~ppf
      ~title:
        (match algorithm with
        | Phase_king.Runner.King ->
            "E3: Phase-King — resilience under Byzantine strategies (t = (n-1)/3)"
        | Phase_king.Runner.Queen ->
            "E3b: Phase-Queen — resilience under Byzantine strategies (t = (n-1)/4)")
      ~headers:[ "n"; "t"; "strategy"; "agreement"; "violations"; "commit-round" ]
      (List.map
         (fun r ->
           [
             string_of_int r.n;
             string_of_int r.t;
             r.strategy;
             string_of_bool r.agreement;
             string_of_int r.object_violations;
             f2 r.mean_first_commit_round;
           ])
         rows);
    rows

  let counterexample ppf =
    let cfg =
      {
        (Phase_king.Runner.default_config ~n:4 ~inputs:[| 0; 1; 1; 0 |]) with
        byzantine = [ 0 ];
        strategy = Phase_king.Strategies.commit_then_steal;
      }
    in
    let r = Phase_king.Runner.run cfg in
    let finals_agree =
      match r.Phase_king.Runner.final_decisions with
      | [] -> false
      | (_, v0) :: rest -> List.for_all (fun (_, v) -> v = v0) rest
    in
    let separated = finals_agree && r.Phase_king.Runner.first_commit_agreement_broken in
    Table.print ~ppf
      ~title:"E3c: Phase-King — first-commit decision rule counterexample"
      ~headers:[ "decision rule"; "decisions"; "agreement" ]
      [
        [
          "final preference (BGP)";
          String.concat " "
            (List.map
               (fun (p, v) -> Printf.sprintf "p%d=%d" p v)
               r.Phase_king.Runner.final_decisions);
          string_of_bool finals_agree;
        ];
        [
          "first commit (paper Alg.2)";
          String.concat " "
            (List.map
               (fun (p, v, m) -> Printf.sprintf "p%d=%d@r%d" p v m)
               r.Phase_king.Runner.first_commits);
          string_of_bool (not r.Phase_king.Runner.first_commit_agreement_broken);
        ];
      ];
    separated
end

(* ----------------------------------------------------------------- E4 -- *)

module E4 = struct
  type row = {
    algorithm : string;
    n : int;
    t : int;
    template_rounds : int;
    sync_rounds : int;
    messages : int;
    messages_over_n2 : float;
  }

  let one algorithm n =
    let inputs = Array.init n (fun i -> i mod 2) in
    let cfg =
      match algorithm with
      | Phase_king.Runner.King -> Phase_king.Runner.default_config ~n ~inputs
      | Phase_king.Runner.Queen -> Phase_king.Runner.default_queen_config ~n ~inputs
    in
    let r = Phase_king.Runner.run cfg in
    {
      algorithm =
        (match algorithm with
        | Phase_king.Runner.King -> "king"
        | Phase_king.Runner.Queen -> "queen");
      n;
      t = cfg.Phase_king.Runner.faults;
      template_rounds = r.Phase_king.Runner.template_rounds;
      sync_rounds = r.Phase_king.Runner.sync_rounds;
      messages = r.Phase_king.Runner.messages;
      messages_over_n2 =
        float_of_int r.Phase_king.Runner.messages /. float_of_int (n * n);
    }

  let run ?scale:_ ppf =
    let sizes = [ 4; 7; 10; 13; 16; 19 ] in
    let rows =
      List.map (one Phase_king.Runner.King) sizes
      @ List.map (one Phase_king.Runner.Queen) (List.filter (fun n -> n >= 5) sizes)
    in
    Table.print ~ppf
      ~title:
        "E4: King vs Queen — message complexity (both quadratic; queen pays fewer \
         rounds for less resilience)"
      ~headers:[ "algorithm"; "n"; "t"; "rounds"; "sync-rounds"; "messages"; "msgs/n^2" ]
      (List.map
         (fun r ->
           [
             r.algorithm;
             string_of_int r.n;
             string_of_int r.t;
             string_of_int r.template_rounds;
             string_of_int r.sync_rounds;
             string_of_int r.messages;
             f2 r.messages_over_n2;
           ])
         rows);
    rows
end

(* ----------------------------------------------------------------- E5 -- *)

module E5 = struct
  type row = {
    n : int;
    fault : string;
    election_time : Stats.summary;
    decide_time : Stats.summary;
    terms_used : Stats.summary;
    all_correct : bool;
  }

  type fault_plan =
    | No_fault
    | Crash_first_leader
    | Crash_and_restart
    | Partition_leader  (** isolate the first leader, heal later *)
    | Lossy of int  (** drop 1 in k messages *)

  let fault_name = function
    | No_fault -> "none"
    | Crash_first_leader -> "crash leader"
    | Crash_and_restart -> "crash+restart"
    | Partition_leader -> "partition+heal"
    | Lossy k -> Printf.sprintf "drop 1/%d msgs" k

  let one_run ~n ~seed ~plan =
    let policy =
      match plan with
      | Lossy k ->
          Some
            (fun env ->
              if env.Netsim.Async_net.env_id mod k = 0 then Netsim.Async_net.Drop
              else Netsim.Async_net.Deliver)
      | No_fault | Crash_first_leader | Crash_and_restart | Partition_leader ->
          None
    in
    let cl = Raft.Cluster.create ~seed:(Int64.of_int seed) ?policy ~n () in
    let inputs = Array.init n (fun i -> 100 + i) in
    let cons = Raft.Consensus_raft.create ~cluster:cl ~inputs in
    Raft.Cluster.start cl;
    let elected =
      Raft.Cluster.run_until cl (fun () -> Raft.Cluster.current_leader cl <> None)
    in
    let election_time = Dsim.Engine.now (Raft.Cluster.engine cl) in
    (match (plan, Raft.Cluster.current_leader cl) with
    | (Crash_first_leader | Crash_and_restart), Some l ->
        Raft.Cluster.crash cl l;
        if plan = Crash_and_restart then
          Dsim.Engine.schedule (Raft.Cluster.engine cl) ~delay:2000 (fun () ->
              Raft.Cluster.restart cl l)
    | Partition_leader, Some l ->
        let others = List.filter (fun i -> i <> l) (List.init n Fun.id) in
        Raft.Cluster.partition cl [ [ l ]; others ];
        Dsim.Engine.schedule (Raft.Cluster.engine cl) ~delay:3000 (fun () ->
            Raft.Cluster.heal cl)
    | (No_fault | Lossy _), _
    | (Crash_first_leader | Crash_and_restart | Partition_leader), None ->
        ());
    let decided = Raft.Consensus_raft.run_until_all_decided ~timeout:300_000 cons in
    let decide_time = Dsim.Engine.now (Raft.Cluster.engine cl) in
    let max_term =
      Array.fold_left
        (fun acc r -> max acc (Raft.Replica.current_term r))
        0 (Raft.Cluster.replicas cl)
    in
    let correct =
      elected && decided
      && Raft.Consensus_raft.check_vac_view cons = []
      && Raft.Cluster.violations cl = []
      && Raft.Cluster.check_log_matching cl = []
    in
    (election_time, decide_time, max_term, correct)

  let run ?(scale = Quick) ppf =
    let seeds = seeds_for scale in
    let rows = ref [] in
    List.iter
      (fun n ->
        List.iter
          (fun plan ->
            let et = ref [] and dt = ref [] and terms = ref [] in
            let ok = ref true in
            for seed = 1 to seeds do
              let e, d, term, correct = one_run ~n ~seed ~plan in
              if not correct then ok := false;
              et := float_of_int e :: !et;
              dt := float_of_int d :: !dt;
              terms := float_of_int term :: !terms
            done;
            rows :=
              {
                n;
                fault = fault_name plan;
                election_time = Stats.summarize !et;
                decide_time = Stats.summarize !dt;
                terms_used = Stats.summarize !terms;
                all_correct = !ok;
              }
              :: !rows)
          [
            No_fault;
            Crash_first_leader;
            Crash_and_restart;
            Partition_leader;
            Lossy 5;
            Lossy 3;
          ])
      [ 3; 5; 7 ];
    let rows = List.rev !rows in
    Table.print ~ppf ~title:"E5: Raft consensus — latency and fault recovery"
      ~headers:[ "n"; "fault"; "election t"; "decide t"; "terms"; "correct" ]
      (List.map
         (fun r ->
           [
             string_of_int r.n;
             r.fault;
             f2 r.election_time.Stats.mean;
             f2 r.decide_time.Stats.mean;
             f2 r.terms_used.Stats.mean;
             string_of_bool r.all_correct;
           ])
         rows);
    rows
end

(* ----------------------------------------------------------------- E6 -- *)

module E6 = struct
  type row = {
    spread : string;
    vacillate : int;
    adopt : int;  (** adopt-stage observations, including those that later
                      upgraded to commit *)
    commit : int;
    reconciliations : Stats.summary;
    view_violations : int;
    decide_time : Stats.summary;
  }

  let run ?(scale = Quick) ppf =
    let seeds = seeds_for scale in
    let rows =
      List.map
        (fun (lo, hi) ->
          let vac = ref 0 and ad = ref 0 and com = ref 0 in
          let recon = ref [] and viols = ref 0 and dt = ref [] in
          for seed = 1 to seeds do
            let config =
              { Raft.Replica.default_config with election_timeout = (lo, hi) }
            in
            let cl =
              Raft.Cluster.create ~seed:(Int64.of_int seed) ~config ~n:5 ()
            in
            let inputs = Array.init 5 (fun i -> 100 + i) in
            let cons = Raft.Consensus_raft.create ~cluster:cl ~inputs in
            Raft.Cluster.start cl;
            ignore (Raft.Consensus_raft.run_until_all_decided ~timeout:300_000 cons : bool);
            dt := float_of_int (Dsim.Engine.now (Raft.Cluster.engine cl)) :: !dt;
            List.iter
              (fun o ->
                match o.Raft.Consensus_raft.obs with
                | Consensus.Types.Vacillate _ -> incr vac
                | Consensus.Types.Adopt _ -> incr ad
                | Consensus.Types.Commit _ -> incr com)
              (Raft.Consensus_raft.vac_view cons);
            ad := !ad + Raft.Consensus_raft.adopt_upgrades cons;
            recon :=
              float_of_int
                (List.length (Raft.Consensus_raft.reconciliator_invocations cons))
              :: !recon;
            viols := !viols + List.length (Raft.Consensus_raft.check_vac_view cons)
          done;
          {
            spread = Printf.sprintf "%d-%d" lo hi;
            vacillate = !vac;
            adopt = !ad;
            commit = !com;
            reconciliations = Stats.summarize !recon;
            view_violations = !viols;
            decide_time = Stats.summarize !dt;
          })
        [ (150, 300); (150, 160); (300, 600) ]
    in
    Table.print ~ppf
      ~title:"E6: Raft VAC view — per-term confidence census (n=5)"
      ~headers:
        [ "timeout"; "vacillate"; "adopt"; "commit"; "reconciliations"; "violations"; "decide t" ]
      (List.map
         (fun r ->
           [
             r.spread;
             string_of_int r.vacillate;
             string_of_int r.adopt;
             string_of_int r.commit;
             f2 r.reconciliations.Stats.mean;
             string_of_int r.view_violations;
             f2 r.decide_time.Stats.mean;
           ])
         rows);
    rows
end

(* ----------------------------------------------------------------- E7 -- *)

module E7 = struct
  type row = { case : string; runs : int; witnesses : int; clean : bool }

  type machinery_row = {
    template : string;
    broadcasts_per_round : int;
    m_rounds : Stats.summary;
    m_messages : Stats.summary;
    m_correct : bool;
  }

  module Sm = Sharedmem.Protocol.Make (Consensus.Objects.Bool_value)
  module Bool_monitor = Consensus.Monitor.Make (Consensus.Objects.Bool_value)

  (* One AC-template Ben-Or run (paper Algorithm 2 with the async AC and
     the validity-machinery conciliator). *)
  let ac_variant_run ~n ~seed =
    let eng =
      Dsim.Engine.create ~seed:(Int64.of_int seed) ~trace_capacity:1_000 ()
    in
    let net = Netsim.Async_net.create eng ~n ~retain_inbox:false () in
    let t = (n - 1) / 2 in
    let monitor = Bool_monitor.create () in
    let decisions = ref [] in
    for i = 0 to n - 1 do
      let input = i mod 2 = 0 in
      Bool_monitor.record_initial monitor ~pid:i input;
      ignore
        (Dsim.Engine.spawn eng (fun ectx ->
             let ctx =
               Ben_or.Ac_variant.make_ctx ~net ~me:i ~faults:t
                 ~rng:ectx.Dsim.Engine.rng ()
             in
             let observer = Bool_monitor.observer monitor ~pid:i in
             let v, m =
               Ben_or.Ac_variant.Consensus_ac.consensus ~max_rounds:3000 ~observer
                 ctx input
             in
             decisions := (i, v, m) :: !decisions)
        : Dsim.Engine.pid)
    done;
    let outcome = Dsim.Engine.run eng in
    let agree =
      match !decisions with
      | [] -> false
      | (_, v0, _) :: rest -> List.for_all (fun (_, v, _) -> Bool.equal v v0) rest
    in
    let ok =
      outcome = Dsim.Engine.Quiescent && agree
      && List.length !decisions = n
      && Bool_monitor.check_ac monitor = []
      && Bool_monitor.check_consensus monitor = []
    in
    let max_round = List.fold_left (fun acc (_, _, m) -> max acc m) 0 !decisions in
    (ok, max_round, Netsim.Async_net.messages_sent net)

  (* The paper's conclusion, measured: the VAC template's reconciliator is
     a bare coin; the AC template's conciliator needs a validity exchange.
     Same algorithm family, same network, same seeds. *)
  let machinery_cost ~scale ppf =
    let seeds = seeds_for scale in
    let n = 8 in
    let vac_rounds = ref [] and vac_msgs = ref [] and vac_ok = ref true in
    for seed = 1 to seeds do
      let cfg =
        {
          (Ben_or.Runner.default_config ~n ~inputs:(split_inputs n)) with
          seed = Int64.of_int seed;
          max_rounds = 3000;
        }
      in
      let r = Ben_or.Runner.run cfg in
      if not (r.Ben_or.Runner.violations = [] && Ben_or.Runner.all_decided_same r ~expected_live:n)
      then vac_ok := false;
      vac_rounds := float_of_int r.Ben_or.Runner.max_decision_round :: !vac_rounds;
      vac_msgs := float_of_int r.Ben_or.Runner.messages_sent :: !vac_msgs
    done;
    let ac_rounds = ref [] and ac_msgs = ref [] and ac_ok = ref true in
    for seed = 1 to seeds do
      let ok, rounds, msgs = ac_variant_run ~n ~seed in
      if not ok then ac_ok := false;
      ac_rounds := float_of_int rounds :: !ac_rounds;
      ac_msgs := float_of_int msgs :: !ac_msgs
    done;
    let rows =
      [
        {
          template = "VAC + coin reconciliator (Alg.1)";
          broadcasts_per_round = 2;
          m_rounds = Stats.summarize !vac_rounds;
          m_messages = Stats.summarize !vac_msgs;
          m_correct = !vac_ok;
        };
        {
          template = "AC + validity conciliator (Alg.2)";
          broadcasts_per_round = Ben_or.Ac_variant.broadcasts_per_round;
          m_rounds = Stats.summarize !ac_rounds;
          m_messages = Stats.summarize !ac_msgs;
          m_correct = !ac_ok;
        };
      ]
    in
    Table.print ~ppf
      ~title:
        "E7b: conciliator validity machinery — Ben-Or via both templates (n=8, \
         even split)"
      ~headers:[ "template"; "bcasts/round"; "rounds"; "messages"; "correct" ]
      (List.map
         (fun r ->
           [
             r.template;
             string_of_int r.broadcasts_per_round;
             summ r.m_rounds;
             f2 r.m_messages.Stats.mean;
             string_of_bool r.m_correct;
           ])
         rows);
    rows

  (* One round of the two-AC VAC under a random schedule; returns monitor
     violations. *)
  let vac_construction_run ~n ~seed =
    let eng = Dsim.Engine.create ~seed:(Int64.of_int seed) () in
    let world = Sharedmem.World.create eng () in
    let shared = Sm.create_shared ~n world in
    let monitor = Bool_monitor.create () in
    for i = 0 to n - 1 do
      let input = Dsim.Rng.bool (Dsim.Engine.rng eng) in
      Bool_monitor.record_initial monitor ~pid:i input;
      ignore
        (Dsim.Engine.spawn eng (fun ectx ->
             let ctx =
               { Sm.shared; proc = { Sharedmem.World.world; me = i; ectx } }
             in
             let out = Sm.Vac.invoke ctx ~round:1 input in
             Bool_monitor.record_output monitor ~round:1 ~pid:i out)
        : Dsim.Engine.pid)
    done;
    ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
    Bool_monitor.check_vac monitor

  let run ?(scale = Quick) ppf =
    let seeds = seeds_for scale * 5 in
    (* (a) VAC-from-two-AC: property violations expected 0. *)
    let construction_bad = ref 0 in
    for seed = 1 to seeds do
      if vac_construction_run ~n:5 ~seed <> [] then incr construction_bad
    done;
    (* (b) Ben-Or adopt-overruled: witnesses expected > 0 across seeds. *)
    let overruled = ref 0 in
    let benor_runs = seeds in
    for seed = 1 to benor_runs do
      let n = 8 in
      let cfg =
        {
          (Ben_or.Runner.default_config ~n ~inputs:(split_inputs n)) with
          seed = Int64.of_int seed;
        }
      in
      let r = Ben_or.Runner.run cfg in
      if r.Ben_or.Runner.adopt_overruled then incr overruled
    done;
    (* (c) Phase-King first-commit counterexample: deterministic. *)
    let cfg =
      {
        (Phase_king.Runner.default_config ~n:4 ~inputs:[| 0; 1; 1; 0 |]) with
        byzantine = [ 0 ];
        strategy = Phase_king.Strategies.commit_then_steal;
      }
    in
    let pk = Phase_king.Runner.run cfg in
    (* (d) exhaustive schedule sweep of the register AC at n = 2 and a
       uniform sample of the two-AC VAC's schedule space. *)
    let exhaustive = Sharedmem.Explore.check_ac_exhaustive ~inputs:[| true; false |] () in
    let sampled =
      Sharedmem.Explore.check_vac_sampled ~inputs:[| true; false |]
        ~samples:(seeds * 20) ~seed:17L
    in
    let rows =
      [
        {
          case = "VAC from two ACs: guarantee violations";
          runs = seeds;
          witnesses = !construction_bad;
          clean = !construction_bad = 0;
        };
        {
          case =
            Printf.sprintf "register AC, ALL %d interleavings (n=2)"
              exhaustive.Sharedmem.Explore.space_size;
          runs = exhaustive.Sharedmem.Explore.schedules_run;
          witnesses = List.length exhaustive.Sharedmem.Explore.violations;
          clean =
            exhaustive.Sharedmem.Explore.exhaustive
            && exhaustive.Sharedmem.Explore.violations = [];
        };
        {
          case = "two-AC VAC, sampled interleavings (n=2)";
          runs = sampled.Sharedmem.Explore.schedules_run;
          witnesses = List.length sampled.Sharedmem.Explore.violations;
          clean = sampled.Sharedmem.Explore.violations = [];
        };
        {
          case = "Ben-Or: (adopt,u) later overruled";
          runs = benor_runs;
          witnesses = !overruled;
          clean = !overruled > 0;
        };
        {
          case = "Phase-King: first-commit disagrees";
          runs = 1;
          witnesses = (if pk.Phase_king.Runner.first_commit_agreement_broken then 1 else 0);
          clean = pk.Phase_king.Runner.first_commit_agreement_broken;
        };
      ]
    in
    Table.print ~ppf ~title:"E7: Section-5 separation, executable"
      ~headers:[ "case"; "runs"; "witnesses"; "as expected" ]
      (List.map
         (fun r ->
           [ r.case; string_of_int r.runs; string_of_int r.witnesses; string_of_bool r.clean ])
         rows);
    ignore (machinery_cost ~scale ppf : machinery_row list);
    rows
end

(* ----------------------------------------------------------------- E8 -- *)

module E8 = struct
  type row = { algorithm : string; variant : string; ms_per_run : float }

  (* Wall clock, not [Sys.time]: process CPU time sums across domains,
     so under [run_all ~jobs] it would charge this experiment for work
     other experiments did concurrently. *)
  let time_runs label variant reps f =
    let t0 = Unix.gettimeofday () in
    for seed = 1 to reps do
      f seed
    done;
    let elapsed = (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int reps in
    { algorithm = label; variant; ms_per_run = elapsed }

  let run ?(scale = Quick) ppf =
    let reps = seeds_for scale in
    let n = 8 in
    let benor mode seed =
      let cfg =
        {
          (Ben_or.Runner.default_config ~n ~inputs:(split_inputs n)) with
          seed = Int64.of_int seed;
          mode;
        }
      in
      ignore (Ben_or.Runner.run cfg : Ben_or.Runner.report)
    in
    let pk mode seed =
      let cfg =
        {
          (Phase_king.Runner.default_config ~n:7
             ~inputs:(Array.init 7 (fun i -> i mod 2)))
          with
          seed = Int64.of_int seed;
          mode;
        }
      in
      ignore (Phase_king.Runner.run cfg : Phase_king.Runner.report)
    in
    let rows =
      [
        time_runs "ben-or" "decomposed" reps (benor Ben_or.Runner.Decomposed);
        time_runs "ben-or" "monolithic" reps (benor Ben_or.Runner.Monolithic);
        time_runs "phase-king" "decomposed" reps (pk Phase_king.Runner.Decomposed);
        time_runs "phase-king" "monolithic" reps (pk Phase_king.Runner.Monolithic);
      ]
    in
    Table.print ~ppf
      ~title:"E8: cost of modularity — host ms per simulated run (see bench/)"
      ~headers:[ "algorithm"; "variant"; "ms/run" ]
      (List.map (fun r -> [ r.algorithm; r.variant; f2 r.ms_per_run ]) rows);
    rows
end

(* --- CSV serializers ---------------------------------------------------- *)

let e1_csv rows =
  Table.csv
    ~headers:[ "n"; "seeds"; "identical"; "correct"; "rounds_dec"; "rounds_mono"; "msgs" ]
    (List.map
       (fun (r : E1.row) ->
         [
           string_of_int r.n;
           string_of_int r.seeds;
           string_of_int r.identical_runs;
           string_of_bool r.all_correct;
           f2 r.mean_rounds_decomposed;
           f2 r.mean_rounds_monolithic;
           f2 r.mean_messages;
         ])
       rows)

let e2_csv rows =
  Table.csv
    ~headers:
      [ "n"; "inputs"; "crashes"; "rounds_mean"; "rounds_p99"; "messages_mean"; "correct" ]
    (List.map
       (fun (r : E2.row) ->
         [
           string_of_int r.n;
           r.split;
           string_of_int r.crashes;
           f2 r.rounds.Stats.mean;
           f2 r.rounds.Stats.p99;
           f2 r.messages.Stats.mean;
           string_of_bool r.all_correct;
         ])
       rows)

let e2b_csv rows =
  Table.csv
    ~headers:[ "n"; "reconciliator"; "rounds_mean"; "rounds_p99"; "correct" ]
    (List.map
       (fun (r : E2.coin_row) ->
         [
           string_of_int r.coin_n;
           r.coin;
           f2 r.coin_rounds.Stats.mean;
           f2 r.coin_rounds.Stats.p99;
           string_of_bool r.coin_correct;
         ])
       rows)

let e3_csv rows =
  Table.csv
    ~headers:[ "n"; "t"; "strategy"; "agreement"; "violations"; "commit_round_mean" ]
    (List.map
       (fun (r : E3.row) ->
         [
           string_of_int r.n;
           string_of_int r.t;
           r.strategy;
           string_of_bool r.agreement;
           string_of_int r.object_violations;
           f2 r.mean_first_commit_round;
         ])
       rows)

let e4_csv rows =
  Table.csv
    ~headers:[ "algorithm"; "n"; "t"; "rounds"; "sync_rounds"; "messages"; "msgs_over_n2" ]
    (List.map
       (fun (r : E4.row) ->
         [
           r.algorithm;
           string_of_int r.n;
           string_of_int r.t;
           string_of_int r.template_rounds;
           string_of_int r.sync_rounds;
           string_of_int r.messages;
           f2 r.messages_over_n2;
         ])
       rows)

let e5_csv rows =
  Table.csv
    ~headers:[ "n"; "fault"; "election_t_mean"; "decide_t_mean"; "terms_mean"; "correct" ]
    (List.map
       (fun (r : E5.row) ->
         [
           string_of_int r.n;
           r.fault;
           f2 r.election_time.Stats.mean;
           f2 r.decide_time.Stats.mean;
           f2 r.terms_used.Stats.mean;
           string_of_bool r.all_correct;
         ])
       rows)

let e6_csv rows =
  Table.csv
    ~headers:
      [ "timeout"; "vacillate"; "adopt"; "commit"; "reconciliations_mean"; "violations"; "decide_t_mean" ]
    (List.map
       (fun (r : E6.row) ->
         [
           r.spread;
           string_of_int r.vacillate;
           string_of_int r.adopt;
           string_of_int r.commit;
           f2 r.reconciliations.Stats.mean;
           string_of_int r.view_violations;
           f2 r.decide_time.Stats.mean;
         ])
       rows)

let e7_csv rows =
  Table.csv
    ~headers:[ "case"; "runs"; "witnesses"; "as_expected" ]
    (List.map
       (fun (r : E7.row) ->
         [ r.case; string_of_int r.runs; string_of_int r.witnesses; string_of_bool r.clean ])
       rows)

let e8_csv rows =
  Table.csv
    ~headers:[ "algorithm"; "variant"; "ms_per_run" ]
    (List.map
       (fun (r : E8.row) -> [ r.algorithm; r.variant; f2 r.ms_per_run ])
       rows)

let write_file dir name contents =
  let path = Filename.concat dir name in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc contents;
      output_char oc '\n')

let run_all ?(scale = Quick) ?only ?csv_dir ?(jobs = 1) ppf =
  let wanted id = match only with None -> true | Some ids -> List.mem id ids in
  let save name contents =
    match csv_dir with
    | None -> ()
    | Some dir -> write_file dir name contents
  in
  (* Each section renders into its own buffer and returns its CSVs, so
     sections can run on separate domains; printing and CSV writes then
     happen in id order from the caller, making the output independent
     of [jobs].  Every experiment is seeded simulation — only E8's
     wall-clock figures pick up noise from concurrent sections. *)
  let sections =
    [
      ("e1", fun ppf -> [ ("e1.csv", e1_csv (E1.run ~scale ppf)) ]);
      ( "e2",
        fun ppf ->
          [
            ("e2.csv", e2_csv (E2.run ~scale ppf));
            ("e2b.csv", e2b_csv (E2.run_coins ~scale ppf));
          ] );
      ( "e3",
        fun ppf ->
          let king = ("e3.csv", e3_csv (E3.run ~scale ppf)) in
          let queen =
            ( "e3b.csv",
              e3_csv (E3.run ~scale ~algorithm:Phase_king.Runner.Queen ppf) )
          in
          ignore (E3.counterexample ppf : bool);
          [ king; queen ] );
      ("e4", fun ppf -> [ ("e4.csv", e4_csv (E4.run ~scale ppf)) ]);
      ("e5", fun ppf -> [ ("e5.csv", e5_csv (E5.run ~scale ppf)) ]);
      ("e6", fun ppf -> [ ("e6.csv", e6_csv (E6.run ~scale ppf)) ]);
      ("e7", fun ppf -> [ ("e7.csv", e7_csv (E7.run ~scale ppf)) ]);
      ("e8", fun ppf -> [ ("e8.csv", e8_csv (E8.run ~scale ppf)) ]);
    ]
  in
  let rendered =
    Exec.Pool.map_list ~jobs
      (fun (_, job) ->
        let buf = Buffer.create 4096 in
        let bppf = Format.formatter_of_buffer buf in
        let csvs = job bppf in
        Format.pp_print_flush bppf ();
        (Buffer.contents buf, csvs))
      (List.filter (fun (id, _) -> wanted id) sections)
  in
  List.iter
    (fun (text, csvs) ->
      Format.pp_print_string ppf text;
      Format.pp_print_flush ppf ();
      List.iter (fun (name, contents) -> save name contents) csvs)
    rendered
