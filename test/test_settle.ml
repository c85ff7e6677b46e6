(* Nested backend runs: the Backend.S contract, settled runs charge
   exactly what full runs charge, and the spare engine a domain reuses
   for them carries nothing from one run to the next.

   Every backend settles its nested engine ([Dsim.Engine.settle]) once
   all of its nodes have reported a decision.  These tests keep a full,
   unsettled run on a fresh engine as the reference and demand the same
   (decision, duration) from every backend over every input pattern of
   2 to 5 processors and 100 seeds each, and a decision that is some
   node's input. *)

module Backend = Rsm.Backend

let patterns n =
  List.init (1 lsl n) (fun bits -> Array.init n (fun i -> bits land (1 lsl i) <> 0))

let seeds = List.init 100 (fun s -> Int64.of_int (s + 1))

let show_inputs inputs =
  String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") inputs))

(* One node per input on a fresh engine and network, run until it is out
   of events.  Returns the first decision with the final clock, and
   whether deliveries were still in flight when the last node returned,
   i.e. whether settling there drops anything. *)
let unsettled ~seed ~inputs node =
  let n = Array.length inputs in
  let eng = Dsim.Engine.create ~seed ~tracing:false () in
  let net = Netsim.Async_net.create eng ~n ~retain_inbox:false () in
  let decision = ref None and returned = ref 0 and at_last_return = ref 0 in
  for me = 0 to n - 1 do
    ignore
      (Dsim.Engine.spawn eng (fun ctx ->
           let v = node ~net ~me ctx in
           if !decision = None then decision := Some v;
           incr returned;
           if !returned = n then
             at_last_return := Netsim.Async_net.messages_delivered net)
        : Dsim.Engine.pid)
  done;
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  match !decision with
  | Some v ->
      ( (v, Dsim.Engine.now eng),
        Netsim.Async_net.messages_delivered net > !at_last_return )
  | None -> Alcotest.failf "seed %Ld: the full run did not decide" seed

(* The Raft backend's loop before settling. *)
let raft_full ~seed ~inputs =
  let faults = (Array.length inputs - 1) / 2 in
  unsettled ~seed ~inputs (fun ~net ~me _ ->
      let input = Bool.to_int inputs.(me) in
      let ctx = Raft.Decentralized.make_ctx ~net ~me ~faults ~input in
      let v, _round =
        Raft.Decentralized.Consensus_decentralized.consensus ~max_rounds:500 ctx input
      in
      v = 1)

(* The decision and clock of [Ben_or.Runner.run], which never settles.
   The runner cannot say what was in flight at the last return, so the
   same nodes run once more, unsettled, to count it. *)
let ben_or_full ~seed ~inputs =
  let n = Array.length inputs in
  let full = Ben_or.Runner.run { (Ben_or.Runner.default_config ~n ~inputs) with seed } in
  let _, drops =
    unsettled ~seed ~inputs (fun ~net ~me ctx ->
        let faults = (n - 1) / 2 in
        let pctx = Ben_or.Protocol.make_ctx ~net ~me ~faults ~rng:ctx.Dsim.Engine.rng () in
        fst
          (Ben_or.Protocol.Consensus_decomposed.consensus ~max_rounds:500 pctx
             inputs.(me)))
  in
  match full.decisions with
  | (_, v, _) :: _ -> ((v, full.virtual_time), drops)
  | [] -> Alcotest.failf "ben-or seed %Ld: the full run did not decide" seed

(* The first final decision and the lock-step rounds × 10 of
   [Phase_king.Runner.run], which never settles; it drops nothing. *)
let phase_king_full ~seed ~inputs =
  let n = Array.length inputs in
  let cfg =
    {
      (Phase_king.Runner.default_config ~n ~inputs:(Array.map Bool.to_int inputs)) with
      seed;
      byzantine = [];
      strategy = Netsim.Byzantine.silent;
    }
  in
  let r = Phase_king.Runner.run cfg in
  match r.final_decisions with
  | (_, v) :: _ -> ((v = 1, r.sync_rounds * 10), false)
  | [] -> Alcotest.failf "phase-king seed %Ld: the full run did not decide" seed

let omega_params = { Detect.Timeout.default with period = 40; initial = 120 }

(* Omega charges the last decision's time; the full run going on past
   it is what settling drops. *)
let omega_full ~seed ~inputs =
  let full =
    Detect.Runner.run ~n:(Array.length inputs) ~seed ~inputs ~quiet:true
      ~params:omega_params ~horizon:4000 ()
  in
  match (Array.to_list full.decisions |> List.filter_map Fun.id, full.last_decision) with
  | v :: _, Some last -> ((v, last), full.virtual_time > last)
  | _ -> Alcotest.failf "omega seed %Ld: the full run did not decide" seed

(* [drops]: also demand that most runs had events left to drop, so the
   identity is not vacuous.  Phase-King's lock-step rounds schedule no
   events, so nothing is left at its last return and its case asserts
   the identity only. *)
let settled_equals_full ?(drops = true) backend full () =
  let (module B : Backend.S) = backend in
  let dropped = ref 0 and runs = ref 0 in
  for n = 2 to 5 do
    List.iter
      (fun inputs ->
        List.iter
          (fun seed ->
            let want, dropping = full ~seed ~inputs in
            let got = B.decide ~seed ~inputs in
            incr runs;
            if dropping then incr dropped;
            if got <> want then
              Alcotest.failf "%s n=%d inputs=%s seed=%Ld: settled (%b, %d), full (%b, %d)"
                B.name n (show_inputs inputs) seed (fst got) (snd got) (fst want)
                (snd want);
            if not (Array.exists (Bool.equal (fst got)) inputs) then
              Alcotest.failf "%s n=%d inputs=%s seed=%Ld: decided %b, no node's input"
                B.name n (show_inputs inputs) seed (fst got))
          seeds)
      (patterns n)
  done;
  Alcotest.(check int) "every pattern and seed" (100 * (4 + 8 + 16 + 32)) !runs;
  if drops then
    Alcotest.(check bool)
      (Printf.sprintf "%s: settling dropped events in most runs (%d of %d)" B.name
         !dropped !runs)
      true
      (2 * !dropped > !runs)

(* Empty inputs fail one way, one input decides itself for free, and a
   run is a function of (seed, inputs) that charges time. *)
let backend_contract () =
  List.iter
    (fun (module B : Backend.S) ->
      Alcotest.check_raises (B.name ^ ": empty inputs")
        (Invalid_argument "Rsm.Backend.decide: empty inputs") (fun () ->
          ignore (B.decide ~seed:1L ~inputs:[||] : bool * int));
      List.iter
        (fun v ->
          Alcotest.(check (pair bool int))
            (Printf.sprintf "%s: n=1 decides %b at no charge" B.name v)
            (v, 0)
            (B.decide ~seed:5L ~inputs:[| v |]))
        [ false; true ];
      for n = 2 to 5 do
        let inputs = Array.init n (fun i -> i mod 2 = 0) in
        let got = B.decide ~seed:5L ~inputs in
        Alcotest.(check (pair bool int))
          (Printf.sprintf "%s n=%d: deterministic" B.name n)
          got
          (B.decide ~seed:5L ~inputs);
        Alcotest.(check bool)
          (Printf.sprintf "%s n=%d: positive charge" B.name n)
          true
          (snd got > 0)
      done)
    Backend.all

(* Each domain runs its nested instances on one spare engine, reset
   between runs.  In an order that alternates the four backends and
   shrinks and grows n, on one domain and shared out over two, every
   decision and charge must still be the full run's on a fresh engine. *)
let spare_engine_carries_nothing () =
  let fulls =
    [
      (Backend.raft, raft_full);
      (Backend.ben_or, ben_or_full);
      (Backend.phase_king, phase_king_full);
      (Backend.omega, omega_full);
    ]
  in
  let items =
    Array.of_list
      (List.concat_map
         (fun seed ->
           List.concat_map
             (fun n ->
               List.concat_map
                 (fun inputs ->
                   List.map (fun (backend, full) -> (backend, full, seed, inputs)) fulls)
                 (patterns n))
             [ 5; 2; 4; 3 ])
         (List.filteri (fun i _ -> i < 10) seeds))
  in
  let want = Array.map (fun (_, full, seed, inputs) -> fst (full ~seed ~inputs)) items in
  let decide ((module B : Backend.S), _, seed, inputs) = B.decide ~seed ~inputs in
  List.iter
    (fun jobs ->
      let got = Exec.Pool.map ~jobs decide items in
      Array.iteri
        (fun i (backend, _, seed, inputs) ->
          if got.(i) <> want.(i) then
            Alcotest.failf "jobs=%d %s inputs=%s seed=%Ld: spare (%b, %d), fresh (%b, %d)"
              jobs (Backend.name backend) (show_inputs inputs) seed (fst got.(i))
              (snd got.(i)) (fst want.(i)) (snd want.(i)))
        items)
    [ 2; 1 ]

let suite =
  [
    Alcotest.test_case "every backend meets the Backend.S contract" `Quick
      backend_contract;
    Alcotest.test_case "raft: settled = full run" `Quick
      (settled_equals_full Backend.raft raft_full);
    Alcotest.test_case "ben-or: settled = full run" `Quick
      (settled_equals_full Backend.ben_or ben_or_full);
    Alcotest.test_case "phase-king: settled = full run" `Quick
      (settled_equals_full ~drops:false Backend.phase_king phase_king_full);
    Alcotest.test_case "omega: settled = full run" `Quick
      (settled_equals_full Backend.omega omega_full);
    Alcotest.test_case "spare engine carries nothing across runs or domains" `Quick
      spare_engine_carries_nothing;
  ]
