(* Differential and regression tests for the reduction stack: DPOR
   vs sleep-set vs unreduced sweeps must agree on what is buggy while
   only shrinking how much work it takes to know; fingerprint pruning at
   a positive fault budget must stay sound (and the collision audit must
   convict a fingerprint that is not); DPOR and PCT trails must survive
   the replay file format; and the work-stealing frontier must keep
   reports byte-identical at every job count. *)

module E = Mcheck.Explorer
module M = Mcheck.Models
module P = Mcheck.Pct
module Engine = Dsim.Engine
module Net = Netsim.Async_net

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let explore ?(jobs = 1) ~config model = E.explore ~jobs ~config model
let render_stable r = Format.asprintf "%a" E.pp_report_stable r

(* ------------------------------------------------ random token race ----

   A family of tiny order-sensitive systems for differential testing:
   three processes each fire a few messages, observe a prefix of their
   inbox, and optionally relay one more message after observing (the
   relay rides a creation edge, so the DPOR happens-before analysis has
   real chains to walk).  The "violations" compare observations
   pairwise — not a correctness property, an *observation* of delivery
   order — so the distinct-violation set of a sweep is a fingerprint of
   exactly which orderings it explored.  A reduction is sound iff it
   preserves that set while running fewer executions. *)

type plan = {
  sends : (int * int) list array;  (* per process: initial (dst, tag) sends *)
  waits : int array;  (* inbox prefix length each process observes *)
  relay : (int * int * int) option;  (* (proc, dst, tag) second-wave send *)
}

let plan_to_string p =
  let sends =
    String.concat " | "
      (Array.to_list
         (Array.map
            (fun l ->
              String.concat ","
                (List.map (fun (d, t) -> Printf.sprintf "%d!%d" d t) l))
            p.sends))
  in
  Printf.sprintf "sends=[%s] waits=[%s] relay=%s" sends
    (String.concat ","
       (Array.to_list (Array.map string_of_int p.waits)))
    (match p.relay with
    | None -> "-"
    | Some (w, d, t) -> Printf.sprintf "p%d:%d!%d" w d t)

let model_of_plan (p : plan) : M.t =
  let make () =
    let obs = Array.make 3 None in
    let run (oracle : Engine.oracle) =
      let eng = Engine.create ~seed:1L () in
      Engine.set_oracle eng (Some oracle);
      let net = Net.create eng ~n:3 () in
      for i = 0 to 2 do
        ignore
          (Engine.spawn eng
             ~name:(fun () -> Printf.sprintf "tok%d" i)
             (fun _ ->
               List.iter
                 (fun (dst, tag) -> Net.send net ~src:i ~dst tag)
                 p.sends.(i);
               let seen =
                 Engine.await (Net.inbox_queue net i) (fun () ->
                     let ib = Net.inbox net i in
                     if List.length ib >= p.waits.(i) then
                       Some (List.filteri (fun k _ -> k < p.waits.(i)) ib)
                     else None)
               in
               obs.(i) <-
                 Some
                   (String.concat ","
                      (List.map
                         (fun e ->
                           Printf.sprintf "%d:%d" e.Net.src e.Net.payload)
                         seen));
               match p.relay with
               | Some (who, dst, tag) when who = i ->
                   Net.send net ~src:i ~dst tag
               | _ -> ()))
      done;
      ignore (Engine.run eng)
    in
    let violations () =
      let acc = ref [] in
      for i = 0 to 2 do
        for j = i + 1 to 2 do
          match (obs.(i), obs.(j)) with
          | Some a, Some b when a <> b ->
              acc := Printf.sprintf "obs p%d=[%s] p%d=[%s]" i a j b :: !acc
          | _ -> ()
        done
      done;
      List.sort compare !acc
    in
    let digest () =
      String.concat ";"
        (Array.to_list
           (Array.map (function None -> "-" | Some s -> s) obs))
    in
    { M.run; violations; digest; fingerprint = None }
  in
  { M.name = "token-race"; describe = "random differential token race"; make }

let gen_plan =
  QCheck.Gen.(
    let send = pair (int_bound 2) (int_bound 2) in
    let sends = list_size (int_bound 2) send in
    map
      (fun ((s0, s1, s2), (waits, relay)) ->
        (* Cap the total at four initial sends: the unreduced sweep
           explores every within-tick permutation, and four tied
           deliveries plus a relay wave stay exhaustive at depth 10. *)
        let rec cap k = function
          | [] -> []
          | x :: tl -> if k <= 0 then [] else x :: cap (k - 1) tl
        in
        let s0 = cap 2 s0 in
        let s1 = cap (4 - List.length s0) s1 in
        let s2 = cap (4 - List.length s0 - List.length s1) s2 in
        {
          sends = [| s0; s1; s2 |];
          waits = Array.of_list waits;
          relay;
        })
      (pair
         (triple sends sends sends)
         (pair
            (list_repeat 3 (int_range 1 2))
            (opt (triple (int_bound 2) (int_bound 2) (int_bound 2))))))

let differential_reductions =
  QCheck.Test.make ~count:30
    ~name:"dpor, sleep and unreduced sweeps agree on the violation set"
    (QCheck.make gen_plan ~print:plan_to_string)
    (fun plan ->
      let run r =
        explore
          ~config:{ E.default_config with depth = 10; reduction = r }
          (model_of_plan plan)
      in
      let rn = run E.Rnone in
      let rs = run E.Rsleep in
      let rd = run E.Rdpor in
      if rn.E.r_truncated > 0 || rs.E.r_truncated > 0 || rd.E.r_truncated > 0
      then QCheck.Test.fail_report "plan not exhaustive at depth 10";
      if rn.E.r_violations <> rs.E.r_violations then
        QCheck.Test.fail_reportf "sleep lost orderings:@ none=%s@ sleep=%s"
          (String.concat " ; " rn.E.r_violations)
          (String.concat " ; " rs.E.r_violations);
      if rn.E.r_violations <> rd.E.r_violations then
        QCheck.Test.fail_reportf "dpor lost orderings:@ none=%s@ dpor=%s"
          (String.concat " ; " rn.E.r_violations)
          (String.concat " ; " rd.E.r_violations);
      if
        not
          (rd.E.r_executions <= rs.E.r_executions
          && rs.E.r_executions <= rn.E.r_executions)
      then
        QCheck.Test.fail_reportf "reduction grew the tree: none=%d sleep=%d dpor=%d"
          rn.E.r_executions rs.E.r_executions rd.E.r_executions;
      true)

(* ----------------------------------------------------- pinned counts --- *)

let dpor_beats_sleep_on_toy_ac () =
  let config r = { E.default_config with depth = 12; reduction = r } in
  let sleep =
    explore ~config:(config E.Rsleep) (M.toy_ac ~check_termination:true ())
  in
  let dpor =
    explore ~config:(config E.Rdpor) (M.toy_ac ~check_termination:true ())
  in
  check Alcotest.int "sleep schedule count pinned" 46656 sleep.E.r_executions;
  check Alcotest.int "dpor schedule count pinned" 11374 dpor.E.r_executions;
  check Alcotest.bool "dpor is strictly cheaper" true
    (dpor.E.r_executions < sleep.E.r_executions);
  check Alcotest.bool "dpor sweep exhaustive" true
    ((not dpor.E.r_capped) && dpor.E.r_truncated = 0);
  check Alcotest.int "both sweeps clean" 0
    (sleep.E.r_violating + dpor.E.r_violating)

let dpor_agrees_on_the_mutant () =
  let config r = { E.default_config with depth = 12; reduction = r } in
  let sleep =
    explore ~config:(config E.Rsleep)
      (M.toy_ac ~broken:true ~check_termination:true ())
  in
  let dpor =
    explore ~config:(config E.Rdpor)
      (M.toy_ac ~broken:true ~check_termination:true ())
  in
  check Alcotest.int "sleep violating schedules pinned" 6144
    sleep.E.r_violating;
  check Alcotest.int "dpor violating schedules pinned" 363 dpor.E.r_violating;
  check
    (Alcotest.list Alcotest.string)
    "identical distinct-violation sets" sleep.E.r_violations
    dpor.E.r_violations;
  check Alcotest.bool "dpor kept a counterexample" true
    (dpor.E.r_counterexample <> None)

(* -------------------------------------------- budget-sound pruning ----

   A bug only reachable after a message drop: p2 burns two aux sends so
   the protocol-critical Commit is the last fault consultation; p0
   sends Ping then Commit to p1 and decides true; p1 arms a deadline
   two ticks out and decides false if Commit never arrives.  A
   fingerprint that ignores the wire and the unspent budget hashes the
   dropped-Commit state into the already-explored deliver-all state and
   prunes the only violating subtree — the unsoundness the explorer's
   [fp_ctx] plumbing exists to prevent, and the one the collision audit
   must convict. *)

type fmsg = Aux | Ping | Commit

let fault_mask_model ~fp () : M.t =
  let make () =
    let p0_out = ref None and p1_out = ref None in
    let netref = ref None and engref = ref None in
    let run (oracle : Engine.oracle) =
      let eng = Engine.create ~seed:1L () in
      Engine.set_oracle eng (Some oracle);
      let net = Net.create eng ~n:3 () in
      netref := Some net;
      engref := Some eng;
      ignore
        (Engine.spawn eng ~name:(fun () -> "aux") (fun _ ->
             Net.send net ~src:2 ~dst:2 Aux;
             Net.send net ~src:2 ~dst:2 Aux));
      ignore
        (Engine.spawn eng ~name:(fun () -> "sender") (fun _ ->
             Net.send net ~src:0 ~dst:1 Ping;
             Net.send net ~src:0 ~dst:1 Commit;
             p0_out := Some true));
      ignore
        (Engine.spawn eng ~name:(fun () -> "receiver") (fun _ ->
             Engine.schedule eng ~owner:1 ~delay:2 (fun () ->
                 if !p1_out = None then p1_out := Some false);
             Engine.await (Net.inbox_queue net 1) (fun () ->
                 if
                   List.exists
                     (fun e -> e.Net.payload = Commit)
                     (Net.inbox net 1)
                 then Some ()
                 else None);
             if !p1_out = None then p1_out := Some true));
      ignore (Engine.run eng)
    in
    let violations () =
      match (!p0_out, !p1_out) with
      | Some a, Some b when a <> b ->
          [ Printf.sprintf "agreement: p0=%b p1=%b" a b ]
      | _ -> []
    in
    let digest () =
      let s = function None -> "-" | Some b -> string_of_bool b in
      Printf.sprintf "p0=%s p1=%s" (s !p0_out) (s !p1_out)
    in
    let fingerprint =
      match fp with
      | `Blind ->
          (* the canonical unsound fingerprint: every state collides *)
          Some (fun (_ : M.fp_ctx) -> 0)
      | `Sound ->
          Some
            (fun (ctx : M.fp_ctx) ->
              match (!netref, !engref) with
              | Some net, Some eng ->
                  let wire =
                    List.map
                      (fun e -> (e.Net.src, e.Net.dst, e.Net.payload))
                      (Net.in_flight net)
                  in
                  let boxes =
                    List.init 3 (fun i ->
                        List.map
                          (fun e -> (e.Net.src, e.Net.payload))
                          (Net.inbox net i))
                  in
                  Hashtbl.hash_param 256 256
                    ( wire,
                      boxes,
                      ctx.M.drops_left,
                      !p0_out,
                      !p1_out,
                      Engine.now eng )
              | _ -> 0)
    in
    { M.run; violations; digest; fingerprint }
  in
  {
    M.name = "fault-mask";
    describe = "drop-gated disagreement for fingerprint soundness tests";
    make;
  }

let budget_pruning_soundness () =
  (* frontier 1: with more partitions each gets its own memo table and
     prefix-served consultations skip the prune check, so partitioning
     dilutes (without fixing) an unsound fingerprint — the soundness
     question needs the single-partition sweep where the memo sees
     everything *)
  let config =
    { E.default_config with depth = 12; fault_budget = 1; frontier = 1 }
  in
  let base = explore ~config (fault_mask_model ~fp:`Sound ()) in
  check Alcotest.bool "the drop-gated bug is reachable unpruned" true
    (base.E.r_violating > 0);
  let blind =
    explore
      ~config:{ config with prune = true }
      (fault_mask_model ~fp:`Blind ())
  in
  check Alcotest.int "a blind fingerprint masks the bug" 0 blind.E.r_violating;
  check Alcotest.bool "by pruning live subtrees" true (blind.E.r_pruned > 0);
  let sound =
    explore
      ~config:{ config with prune = true }
      (fault_mask_model ~fp:`Sound ())
  in
  check Alcotest.bool "the budget-aware fingerprint keeps it" true
    (sound.E.r_violating > 0);
  check
    (Alcotest.list Alcotest.string)
    "same violation set as the unpruned sweep" base.E.r_violations
    sound.E.r_violations

let audit_convicts_blind_fingerprint () =
  let config =
    {
      E.default_config with
      depth = 12;
      fault_budget = 1;
      prune = true;
      audit = 1;
      frontier = 1;
    }
  in
  let blind = explore ~config (fault_mask_model ~fp:`Blind ()) in
  check Alcotest.bool "audited continuations ran" true (blind.E.r_audited > 0);
  check Alcotest.bool "the audit convicts the blind fingerprint" true
    (blind.E.r_audit_failures <> []);
  check Alcotest.int "the sweep verdict itself was still masked" 0
    blind.E.r_violating;
  let sound = explore ~config (fault_mask_model ~fp:`Sound ()) in
  check
    (Alcotest.list Alcotest.string)
    "the sound fingerprint passes the audit" [] sound.E.r_audit_failures;
  (* auditing a clean model with a sound fingerprint is silent too *)
  let clean =
    explore
      ~config:{ config with fault_budget = 0 }
      (M.toy_ac ~check_termination:true ())
  in
  check Alcotest.bool "clean-model prunes were audited" true
    (clean.E.r_audited > 0);
  check
    (Alcotest.list Alcotest.string)
    "clean-model audit is silent" [] clean.E.r_audit_failures

(* ------------------------------------------------------- replay -------- *)

let dpor_counterexample_replays () =
  let config = { E.default_config with depth = 12; reduction = E.Rdpor } in
  let model () = M.toy_ac ~broken:true ~check_termination:true () in
  let r = explore ~config (model ()) in
  let ce = Option.get r.E.r_counterexample in
  let t = Mcheck.Replay.of_exec ~model:"toy-ac-broken" ~config ce in
  let t' = Mcheck.Replay.of_string (Mcheck.Replay.to_string t) in
  let x = E.replay ~config (model ()) (Mcheck.Replay.entries t') in
  check Alcotest.string "dpor trail digest survives the file format"
    ce.E.x_digest x.E.x_digest;
  check
    (Alcotest.list Alcotest.string)
    "dpor trail violations survive" ce.E.x_violations x.E.x_violations

let pct_convicts_and_replays () =
  let pc = { P.default_config with P.schedules = 2000 } in
  let model () = M.toy_ac ~broken:true ~check_termination:true () in
  let r = P.run ~jobs:2 ~config:pc (model ()) in
  check Alcotest.bool "PCT convicts the mutant within budget" true
    (r.P.pr_violating > 0);
  check Alcotest.int "first violating schedule pinned" 1040
    (Option.get r.P.pr_first);
  let trail = Option.get r.P.pr_counterexample in
  let config = { E.default_config with depth = 12 } in
  let t =
    Mcheck.Replay.of_entries ~model:"toy-ac-broken" ~config
      (E.entries_of_choices trail)
  in
  let t' = Mcheck.Replay.of_string (Mcheck.Replay.to_string t) in
  let x = E.replay ~config (model ()) (Mcheck.Replay.entries t') in
  let y = E.replay ~config (model ()) (Mcheck.Replay.entries t') in
  check Alcotest.bool "the sampled schedule still violates after the file"
    true
    (x.E.x_violations <> []);
  check Alcotest.string "and replays deterministically" x.E.x_digest
    y.E.x_digest

(* ----------------------------------------------------- determinism ----- *)

let dpor_report_stable_across_jobs () =
  let config = { E.default_config with depth = 12; reduction = E.Rdpor } in
  let model () = M.toy_ac ~broken:true ~check_termination:true () in
  let r1 = explore ~jobs:1 ~config (model ()) in
  let r4 = explore ~jobs:4 ~config (model ()) in
  check Alcotest.string "dpor frontier report byte-identical at jobs 1 vs 4"
    (render_stable r1) (render_stable r4)

let pct_report_stable_across_jobs () =
  let pc = { P.default_config with P.schedules = 500 } in
  let model () = M.toy_ac ~broken:true ~check_termination:true () in
  let r1 = P.run ~jobs:1 ~config:pc (model ()) in
  let r4 = P.run ~jobs:4 ~config:pc (model ()) in
  check Alcotest.string "pct report byte-identical at jobs 1 vs 4"
    (Format.asprintf "%a" P.pp_report_stable r1)
    (Format.asprintf "%a" P.pp_report_stable r4)

let suite =
  [
    qtest differential_reductions;
    Alcotest.test_case "dpor strictly beats sleep on toy AC" `Quick
      dpor_beats_sleep_on_toy_ac;
    Alcotest.test_case "dpor agrees with sleep on the mutant" `Quick
      dpor_agrees_on_the_mutant;
    Alcotest.test_case "pruning at a positive budget is sound" `Quick
      budget_pruning_soundness;
    Alcotest.test_case "collision audit convicts a blind fingerprint" `Quick
      audit_convicts_blind_fingerprint;
    Alcotest.test_case "dpor counterexample replays through the file" `Quick
      dpor_counterexample_replays;
    Alcotest.test_case "PCT convicts the mutant and replays" `Quick
      pct_convicts_and_replays;
    Alcotest.test_case "dpor report stable across jobs" `Quick
      dpor_report_stable_across_jobs;
    Alcotest.test_case "PCT report stable across jobs" `Quick
      pct_report_stable_across_jobs;
  ]
