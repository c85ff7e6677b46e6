(* Test entry point: one alcotest run covering every library. *)

let () =
  Alcotest.run "object-oriented-consensus"
    [
      ("rng", Test_rng.suite);
      ("heap", Test_heap.suite);
      ("wheel", Test_wheel.suite);
      ("vec", Test_vec.suite);
      ("trace", Test_trace.suite);
      ("engine", Test_engine.suite);
      ("golden", Test_golden.suite);
      ("timer", Test_timer.suite);
      ("async-net", Test_async_net.suite);
      ("sync-net", Test_sync_net.suite);
      ("types", Test_types.suite);
      ("monitor", Test_monitor.suite);
      ("template", Test_template.suite);
      ("constructions", Test_constructions.suite);
      ("tally", Test_tally.suite);
      ("ben-or", Test_ben_or.suite);
      ("ben-or-ac-template", Test_ac_variant.suite);
      ("common-coin", Test_common_coin.suite);
      ("phase-king", Test_phase_king.suite);
      ("phase-queen", Test_queen.suite);
      ("raft", Test_raft.suite);
      ("raft-consensus", Test_raft_consensus.suite);
      ("decentralized", Test_decentralized.suite);
      ("sharedmem", Test_sharedmem.suite);
      ("explore", Test_explore.suite);
      ("store", Test_store.suite);
      ("wal", Test_wal.suite);
      ("rsm", Test_rsm.suite);
      ("obj", Test_obj.suite);
      ("shard", Test_shard.suite);
      ("workload", Test_workload.suite);
      ("nemesis", Test_nemesis.suite);
      ("detect", Test_detect.suite);
      ("settle", Test_settle.suite);
      ("mcheck", Test_mcheck.suite);
      ("dpor", Test_dpor.suite);
      ("exec", Test_exec.suite);
    ]
