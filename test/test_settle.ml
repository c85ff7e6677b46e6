(* Settled nested runs charge exactly what full runs charge.

   The Raft, Ben-Or and Omega backends settle their nested engine
   ([Dsim.Engine.settle]) once the result is fixed.  These tests keep
   the full, unsettled run as the reference and demand the same
   (decision, duration) from every backend over every input pattern of
   2 to 5 processors and 100 seeds each. *)

module Backend = Rsm.Backend

let patterns n =
  List.init (1 lsl n) (fun bits -> Array.init n (fun i -> bits land (1 lsl i) <> 0))

let seeds = List.init 100 (fun s -> Int64.of_int (s + 1))

let majority inputs =
  let ones = Array.fold_left (fun a b -> if b then a + 1 else a) 0 inputs in
  2 * ones > Array.length inputs

let show_inputs inputs =
  String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") inputs))

(* The Raft backend's loop before settling: the nested engine runs until
   it is out of events.  Also says whether deliveries were still in
   flight when the last node returned, i.e. whether settling there drops
   anything. *)
let raft_full ~seed ~inputs =
  let n = Array.length inputs in
  let eng = Dsim.Engine.create ~seed ~trace_capacity:256 () in
  let net = Netsim.Async_net.create eng ~n ~retain_inbox:false () in
  let faults = (n - 1) / 2 in
  let decision = ref None and returned = ref 0 and at_last_return = ref 0 in
  for i = 0 to n - 1 do
    ignore
      (Dsim.Engine.spawn eng (fun _ectx ->
           let input = if inputs.(i) then 1 else 0 in
           let ctx = Raft.Decentralized.make_ctx ~net ~me:i ~faults ~input in
           let v, _round =
             Raft.Decentralized.Consensus_decentralized.consensus ~max_rounds:500 ctx
               input
           in
           if !decision = None then decision := Some v;
           incr returned;
           if !returned = n then
             at_last_return := Netsim.Async_net.messages_delivered net)
        : Dsim.Engine.pid)
  done;
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  let v = match !decision with Some v -> v = 1 | None -> majority inputs in
  ((v, Dsim.Engine.now eng), Netsim.Async_net.messages_delivered net > !at_last_return)

let ben_or_config ~seed ~inputs =
  { (Ben_or.Runner.default_config ~n:(Array.length inputs) ~inputs) with seed }

let ben_or_full ~seed ~inputs =
  let full = Ben_or.Runner.run (ben_or_config ~seed ~inputs) in
  let settled = Ben_or.Runner.run ~settle:true (ben_or_config ~seed ~inputs) in
  let v = match full.decisions with (_, v, _) :: _ -> v | [] -> majority inputs in
  ( (v, full.virtual_time),
    settled.messages_delivered < full.messages_delivered )

let omega_params = { Detect.Timeout.default with period = 40; initial = 120 }

(* [decide] charges the last decision's time; the full run going on past
   it is what settling drops. *)
let omega_full ~seed ~inputs =
  let full =
    Detect.Runner.run ~n:(Array.length inputs) ~seed ~inputs ~quiet:true
      ~params:omega_params ~horizon:4000 ()
  in
  match (Array.to_list full.decisions |> List.filter_map Fun.id, full.last_decision) with
  | v :: _, Some last -> ((v, last), full.virtual_time > last)
  | _ -> Alcotest.failf "omega seed %Ld: the full run did not decide" seed

let settled_equals_full backend full () =
  let (module B : Backend.S) = backend in
  let dropped = ref 0 and runs = ref 0 in
  for n = 2 to 5 do
    List.iter
      (fun inputs ->
        List.iter
          (fun seed ->
            let want, drops = full ~seed ~inputs in
            let got = B.decide ~seed ~inputs in
            incr runs;
            if drops then incr dropped;
            if got <> want then
              Alcotest.failf "%s n=%d inputs=%s seed=%Ld: settled (%b, %d), full (%b, %d)"
                B.name n (show_inputs inputs) seed (fst got) (snd got) (fst want)
                (snd want))
          seeds)
      (patterns n)
  done;
  Alcotest.(check int) "every pattern and seed" (100 * (4 + 8 + 16 + 32)) !runs;
  (* the identity is not vacuous: most runs had events left to drop *)
  Alcotest.(check bool)
    (Printf.sprintf "%s: settling dropped events in most runs (%d of %d)" B.name
       !dropped !runs)
    true
    (2 * !dropped > !runs)

let ben_or_rejects_oracle () =
  let cfg =
    {
      (ben_or_config ~seed:1L ~inputs:[| true; false; true |]) with
      oracle = Some { Dsim.Engine.choose = (fun _ -> 0) };
    }
  in
  Alcotest.check_raises "settle under an oracle"
    (Invalid_argument "Ben_or.Runner.run: settle under an oracle") (fun () ->
      ignore (Ben_or.Runner.run ~settle:true cfg : Ben_or.Runner.report))

let suite =
  [
    Alcotest.test_case "raft: settled = full run" `Quick
      (settled_equals_full Backend.raft raft_full);
    Alcotest.test_case "ben-or: settled = full run" `Quick
      (settled_equals_full Backend.ben_or ben_or_full);
    Alcotest.test_case "omega: settled = full run" `Quick
      (settled_equals_full Backend.omega omega_full);
    Alcotest.test_case "ben-or settle rejects an oracle" `Quick ben_or_rejects_oracle;
  ]
