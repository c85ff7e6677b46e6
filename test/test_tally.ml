(* Tests for the incremental quorum tallies (Ben-Or and the decentralized
   variant), the message pretty-printers, and the latency models. *)

module Engine = Dsim.Engine
module Net = Netsim.Async_net

let check = Alcotest.check

(* --- Ben-Or tally ------------------------------------------------------- *)

let benor_net () =
  let e = Engine.create ~seed:2L () in
  let net : Ben_or.Messages.t Net.t =
    Net.create e ~n:4 ~latency:(Netsim.Latency.Fixed 1) ~retain_inbox:false ()
  in
  (e, net)

let tally_counts_by_phase () =
  let e, net = benor_net () in
  let t = Ben_or.Tally.attach net ~me:0 ~quorum:3 in
  Net.send net ~src:1 ~dst:0 (Ben_or.Messages.Report { phase = 1; value = true });
  Net.send net ~src:2 ~dst:0 (Ben_or.Messages.Report { phase = 1; value = false });
  Net.send net ~src:3 ~dst:0 (Ben_or.Messages.Report { phase = 2; value = true });
  Net.send net ~src:1 ~dst:0 (Ben_or.Messages.Ratify { phase = 1; value = true });
  Net.send net ~src:2 ~dst:0 (Ben_or.Messages.Question { phase = 1 });
  ignore (Engine.run e : Engine.outcome);
  check Alcotest.int "phase 1 reporters" 2 (Ben_or.Tally.step1_senders t ~phase:1);
  check Alcotest.int "phase 2 reporters" 1 (Ben_or.Tally.step1_senders t ~phase:2);
  check Alcotest.int "true reports" 1 (Ben_or.Tally.reports_for t ~phase:1 true);
  check Alcotest.int "false reports" 1 (Ben_or.Tally.reports_for t ~phase:1 false);
  check Alcotest.int "step2 senders" 2 (Ben_or.Tally.step2_senders t ~phase:1);
  check Alcotest.int "ratify true" 1 (Ben_or.Tally.ratifies_for t ~phase:1 true);
  check Alcotest.int "ratify false" 0 (Ben_or.Tally.ratifies_for t ~phase:1 false)

let tally_dedups_senders () =
  let e, net = benor_net () in
  let t = Ben_or.Tally.attach net ~me:0 ~quorum:3 in
  for _ = 1 to 5 do
    Net.send net ~src:1 ~dst:0 (Ben_or.Messages.Report { phase = 1; value = true })
  done;
  ignore (Engine.run e : Engine.outcome);
  check Alcotest.int "one distinct sender" 1 (Ben_or.Tally.step1_senders t ~phase:1);
  check Alcotest.int "one true report" 1 (Ben_or.Tally.reports_for t ~phase:1 true)

let tally_forget_below () =
  let e, net = benor_net () in
  let t = Ben_or.Tally.attach net ~me:0 ~quorum:3 in
  Net.send net ~src:1 ~dst:0 (Ben_or.Messages.Report { phase = 1; value = true });
  Net.send net ~src:1 ~dst:0 (Ben_or.Messages.Report { phase = 5; value = true });
  ignore (Engine.run e : Engine.outcome);
  Ben_or.Tally.forget_below t ~phase:5;
  check Alcotest.int "old phase dropped" 0 (Ben_or.Tally.step1_senders t ~phase:1);
  check Alcotest.int "current phase kept" 1 (Ben_or.Tally.step1_senders t ~phase:5)

(* The tally signals only when a step count reaches the quorum, so a
   wait for fewer senders is never woken: the missed-wakeup audit must
   catch it when the run deadlocks. *)
let tally_wait_below_quorum_is_missed () =
  let e, net = benor_net () in
  let t = Ben_or.Tally.attach net ~me:0 ~quorum:3 in
  let waiter =
    Engine.spawn e (fun _ ->
        Engine.await_cond (Ben_or.Tally.changed t) (fun () ->
            Ben_or.Tally.step1_senders t ~phase:1 >= 2))
  in
  Net.send net ~src:1 ~dst:0 (Ben_or.Messages.Report { phase = 1; value = true });
  Net.send net ~src:2 ~dst:0 (Ben_or.Messages.Report { phase = 1; value = false });
  Alcotest.check_raises "unsignalled wait convicted" (Engine.Missed_wakeup waiter)
    (fun () -> ignore (Engine.run e : Engine.outcome))

(* Reads never create a phase; a late write to a forgotten phase is
   forgotten again by the next [forget_below]. *)
let phases_reads_create_nothing () =
  let empty = ref 0 in
  let t = Consensus.Phases.create ~empty ~make:(fun () -> ref 0) in
  check Alcotest.bool "absent phase reads as empty" true
    (Consensus.Phases.get t 7 == empty);
  check Alcotest.bool "still absent after the read" true
    (Consensus.Phases.get t 7 == empty);
  incr (Consensus.Phases.obtain t 7);
  check Alcotest.int "written phase kept" 1 !(Consensus.Phases.get t 7);
  Consensus.Phases.forget_below t 8;
  check Alcotest.bool "forgotten" true (Consensus.Phases.get t 7 == empty);
  incr (Consensus.Phases.obtain t 2);
  check Alcotest.int "late write recreates" 1 !(Consensus.Phases.get t 2);
  Consensus.Phases.forget_below t 9;
  check Alcotest.bool "late phase forgotten again" true
    (Consensus.Phases.get t 2 == empty);
  check Alcotest.int "empty never written" 0 !empty;
  Alcotest.check_raises "negative phase"
    (Invalid_argument "Phases.obtain: negative phase") (fun () ->
      ignore (Consensus.Phases.obtain t (-1) : int ref))

(* --- decentralized tally ------------------------------------------------ *)

let dec_net () =
  let e = Engine.create ~seed:3L () in
  let net : Raft.Decentralized_msg.t Net.t =
    Net.create e ~n:5 ~latency:(Netsim.Latency.Fixed 1) ~retain_inbox:false ()
  in
  (e, net)

let dec_tally_majority_and_order () =
  let e, net = dec_net () in
  let t = Raft.Dec_tally.attach net ~me:0 ~quorum:3 in
  Engine.schedule e ~delay:0 (fun () ->
      Net.send net ~src:3 ~dst:0 (Raft.Decentralized_msg.Propose { phase = 1; value = 9 }));
  Engine.schedule e ~delay:5 (fun () ->
      Net.send net ~src:1 ~dst:0 (Raft.Decentralized_msg.Propose { phase = 1; value = 7 });
      Net.send net ~src:2 ~dst:0 (Raft.Decentralized_msg.Propose { phase = 1; value = 7 });
      Net.send net ~src:4 ~dst:0 (Raft.Decentralized_msg.Propose { phase = 1; value = 7 }));
  ignore (Engine.run e : Engine.outcome);
  check Alcotest.int "proposers" 4 (Raft.Dec_tally.proposers t ~phase:1);
  check (Alcotest.option Alcotest.int) "majority of n=5" (Some 7)
    (Raft.Dec_tally.majority_value t ~phase:1 ~n:5);
  check (Alcotest.option Alcotest.int) "plurality" (Some 7)
    (Raft.Dec_tally.plurality t ~phase:1);
  (* a tie goes to the earliest-arrived proposal, whatever the values *)
  Engine.schedule e ~delay:0 (fun () ->
      Net.send net ~src:3 ~dst:0 (Raft.Decentralized_msg.Propose { phase = 2; value = 9 });
      Net.send net ~src:1 ~dst:0 (Raft.Decentralized_msg.Propose { phase = 3; value = 7 }));
  Engine.schedule e ~delay:5 (fun () ->
      Net.send net ~src:1 ~dst:0 (Raft.Decentralized_msg.Propose { phase = 2; value = 7 });
      Net.send net ~src:3 ~dst:0 (Raft.Decentralized_msg.Propose { phase = 3; value = 9 }));
  ignore (Engine.run e : Engine.outcome);
  check (Alcotest.option Alcotest.int) "earliest of a tie" (Some 9)
    (Raft.Dec_tally.plurality t ~phase:2);
  check (Alcotest.option Alcotest.int) "earliest of a tie, reversed" (Some 7)
    (Raft.Dec_tally.plurality t ~phase:3);
  check (Alcotest.option Alcotest.int) "no majority in a tie" None
    (Raft.Dec_tally.majority_value t ~phase:2 ~n:5);
  check (Alcotest.option Alcotest.int) "no proposals" None
    (Raft.Dec_tally.plurality t ~phase:4);
  check Alcotest.int "no seconds yet" 0 (Raft.Dec_tally.second_senders t ~phase:1)

let dec_tally_ratifications () =
  let e, net = dec_net () in
  let t = Raft.Dec_tally.attach net ~me:0 ~quorum:3 in
  Net.send net ~src:1 ~dst:0 (Raft.Decentralized_msg.Second { phase = 2; ratify = Some 4 });
  Net.send net ~src:2 ~dst:0 (Raft.Decentralized_msg.Second { phase = 2; ratify = Some 4 });
  Net.send net ~src:3 ~dst:0 (Raft.Decentralized_msg.Second { phase = 2; ratify = None });
  (* phase 3: 9 twice, then the smaller 5 once *)
  Net.send net ~src:1 ~dst:0 (Raft.Decentralized_msg.Second { phase = 3; ratify = Some 9 });
  Net.send net ~src:2 ~dst:0 (Raft.Decentralized_msg.Second { phase = 3; ratify = Some 9 });
  Net.send net ~src:3 ~dst:0 (Raft.Decentralized_msg.Second { phase = 3; ratify = Some 5 });
  ignore (Engine.run e : Engine.outcome);
  let ratified = Alcotest.(option (pair int bool)) in
  check Alcotest.int "second senders" 3 (Raft.Dec_tally.second_senders t ~phase:2);
  check ratified "past 1 ratification" (Some (4, true))
    (Raft.Dec_tally.ratified t ~phase:2 ~above:1);
  check ratified "not past 2" (Some (4, false))
    (Raft.Dec_tally.ratified t ~phase:2 ~above:2);
  check ratified "none ratified" None (Raft.Dec_tally.ratified t ~phase:1 ~above:0);
  check ratified "a committing value beats a smaller one" (Some (9, true))
    (Raft.Dec_tally.ratified t ~phase:3 ~above:1);
  check ratified "else the smallest" (Some (5, false))
    (Raft.Dec_tally.ratified t ~phase:3 ~above:2)

(* --- message pretty-printers -------------------------------------------- *)

let benor_message_pp () =
  let s m = Ben_or.Messages.to_string m in
  check Alcotest.string "report" "<1, true>@3"
    (s (Ben_or.Messages.Report { phase = 3; value = true }));
  check Alcotest.string "ratify" "<2, false, ratify>@1"
    (s (Ben_or.Messages.Ratify { phase = 1; value = false }));
  check Alcotest.string "question" "<2, ?>@2" (s (Ben_or.Messages.Question { phase = 2 }))

let benor_message_predicates () =
  check Alcotest.int "phase accessor" 4
    (Ben_or.Messages.phase (Ben_or.Messages.Question { phase = 4 }));
  check Alcotest.bool "step1 match" true
    (Ben_or.Messages.is_step1 ~phase:2 (Ben_or.Messages.Report { phase = 2; value = true }));
  check Alcotest.bool "step1 wrong phase" false
    (Ben_or.Messages.is_step1 ~phase:2 (Ben_or.Messages.Report { phase = 3; value = true }));
  check Alcotest.bool "step2 matches ratify" true
    (Ben_or.Messages.is_step2 ~phase:1 (Ben_or.Messages.Ratify { phase = 1; value = true }));
  check Alcotest.bool "step2 matches question" true
    (Ben_or.Messages.is_step2 ~phase:1 (Ben_or.Messages.Question { phase = 1 }))

let raft_message_kinds () =
  let ae entries =
    Raft.Types.Append_entries
      {
        term = 2;
        leader_id = 0;
        prev_log_index = 0;
        prev_log_term = 0;
        entries;
        leader_commit = 1;
      }
  in
  check Alcotest.string "entries kind" "ae"
    (Raft.Types.msg_kind (ae [ { Raft.Types.entry_term = 2; cmd = "x" } ]));
  check Alcotest.string "commit kind" "ae-commit" (Raft.Types.msg_kind (ae []));
  check Alcotest.string "vote kind" "rv"
    (Raft.Types.msg_kind
       (Raft.Types.Request_vote
          { term = 1; candidate_id = 0; last_log_index = 0; last_log_term = 0 }))

(* --- latency models ------------------------------------------------------ *)

let latency_draws_in_range () =
  let rng = Dsim.Rng.create 4L in
  for _ = 1 to 200 do
    let d = Netsim.Latency.draw (Netsim.Latency.Uniform (3, 9)) ~src:0 ~dst:1 ~rng in
    check Alcotest.bool "in range" true (d >= 3 && d <= 9)
  done;
  check Alcotest.int "fixed" 7
    (Netsim.Latency.draw (Netsim.Latency.Fixed 7) ~src:0 ~dst:1 ~rng);
  for _ = 1 to 200 do
    let d =
      Netsim.Latency.draw
        (Netsim.Latency.Exponential { mean = 10.0; cap = 50 })
        ~src:0 ~dst:1 ~rng
    in
    check Alcotest.bool "capped" true (d >= 0 && d <= 50)
  done

let latency_per_link_and_negative_clamp () =
  let rng = Dsim.Rng.create 4L in
  let model = Netsim.Latency.Per_link (fun ~src ~dst ~rng:_ -> (10 * src) - dst) in
  check Alcotest.int "programmable" 19 (Netsim.Latency.draw model ~src:2 ~dst:1 ~rng);
  check Alcotest.int "negative clamped to 0" 0
    (Netsim.Latency.draw model ~src:0 ~dst:5 ~rng)

let suite =
  [
    Alcotest.test_case "tally counts by phase" `Quick tally_counts_by_phase;
    Alcotest.test_case "tally dedups senders" `Quick tally_dedups_senders;
    Alcotest.test_case "tally forget_below" `Quick tally_forget_below;
    Alcotest.test_case "tally wait below quorum is missed" `Quick
      tally_wait_below_quorum_is_missed;
    Alcotest.test_case "phases: reads create nothing" `Quick phases_reads_create_nothing;
    Alcotest.test_case "dec tally majority/order" `Quick dec_tally_majority_and_order;
    Alcotest.test_case "dec tally ratifications" `Quick dec_tally_ratifications;
    Alcotest.test_case "ben-or message pp" `Quick benor_message_pp;
    Alcotest.test_case "ben-or message predicates" `Quick benor_message_predicates;
    Alcotest.test_case "raft message kinds" `Quick raft_message_kinds;
    Alcotest.test_case "latency ranges" `Quick latency_draws_in_range;
    Alcotest.test_case "latency per-link" `Quick latency_per_link_and_negative_clamp;
  ]
