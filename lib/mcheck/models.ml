module Engine = Dsim.Engine
module Async_net = Netsim.Async_net
module Types = Consensus.Types
module Bool_monitor = Consensus.Monitor.Make (Consensus.Objects.Bool_value)

type fp_ctx = { drops_left : int }

type instance = {
  run : Engine.oracle -> unit;
  violations : unit -> string list;
  digest : unit -> string;
  fingerprint : (fp_ctx -> int) option;
}

type t = { name : string; describe : string; make : unit -> instance }

let fmt_violation v = Format.asprintf "%a" Consensus.Monitor.pp_violation v

let outcome_str = function
  | Engine.Quiescent -> "quiescent"
  | Engine.Deadlock pids ->
      "deadlock:" ^ String.concat "," (List.map string_of_int pids)
  | Engine.Time_limit -> "time-limit"
  | Engine.Event_limit -> "event-limit"

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

(* ---------------------------------------------------------------- Ben-Or *)

let benor ?(n = 3) ?inputs ~check_termination () =
  let inputs =
    match inputs with
    | Some a -> a
    | None -> Array.init n (fun i -> i mod 2 = 0)
  in
  let make () =
    let result = ref None in
    let run oracle =
      let config =
        {
          (Ben_or.Runner.default_config ~n ~inputs) with
          Ben_or.Runner.max_rounds = 30;
          oracle = Some oracle;
        }
      in
      result := Some (Ben_or.Runner.run config)
    in
    let report () =
      match !result with
      | Some r -> r
      | None -> failwith "Mcheck.Models: model queried before run"
    in
    let violations () =
      let r = report () in
      let vs = List.map fmt_violation r.Ben_or.Runner.violations in
      if check_termination then
        vs
        @ (match r.Ben_or.Runner.engine_outcome with
          | Engine.Quiescent -> []
          | o -> [ "termination: run ended " ^ outcome_str o ])
        @ List.map
            (fun (pid, exn) ->
              Printf.sprintf "termination: p%d failed: %s" pid
                (Printexc.to_string exn))
            r.Ben_or.Runner.process_failures
      else vs
    in
    let digest () =
      let r = report () in
      Printf.sprintf "decisions=[%s] outcome=%s time=%d msgs=%d/%d"
        (String.concat ";"
           (List.map
              (fun (p, v, rd) -> Printf.sprintf "p%d:%b@%d" p v rd)
              r.Ben_or.Runner.decisions))
        (outcome_str r.Ben_or.Runner.engine_outcome)
        r.Ben_or.Runner.virtual_time r.Ben_or.Runner.messages_sent
        r.Ben_or.Runner.messages_delivered
    in
    { run; violations; digest; fingerprint = None }
  in
  {
    name = "ben-or";
    describe =
      Printf.sprintf "Ben-Or VAC consensus, n=%d inputs=[%s]" n
        (String.concat ";"
           (List.map string_of_bool (Array.to_list inputs)));
    make;
  }

(* ------------------------------------------------------------ Phase-King *)

let phase_king ?(n = 4) ?inputs () =
  let inputs =
    match inputs with Some a -> a | None -> Array.init n (fun i -> i mod 2)
  in
  let make () =
    let result = ref None in
    let run oracle =
      let config =
        {
          (Phase_king.Runner.default_config ~n ~inputs) with
          Phase_king.Runner.oracle = Some oracle;
        }
      in
      result := Some (Phase_king.Runner.run config)
    in
    let report () =
      match !result with
      | Some r -> r
      | None -> failwith "Mcheck.Models: model queried before run"
    in
    let violations () =
      let r = report () in
      List.map fmt_violation r.Phase_king.Runner.violations
      @ (match r.Phase_king.Runner.engine_outcome with
        | Engine.Quiescent -> []
        | o -> [ "termination: run ended " ^ outcome_str o ])
      @ List.map
          (fun (pid, exn) ->
            Printf.sprintf "termination: p%d failed: %s" pid
              (Printexc.to_string exn))
          r.Phase_king.Runner.process_failures
    in
    let digest () =
      let r = report () in
      Printf.sprintf "finals=[%s] outcome=%s rounds=%d"
        (String.concat ";"
           (List.map
              (fun (p, v) -> Printf.sprintf "p%d:%d" p v)
              r.Phase_king.Runner.final_decisions))
        (outcome_str r.Phase_king.Runner.engine_outcome)
        r.Phase_king.Runner.sync_rounds
    in
    { run; violations; digest; fingerprint = None }
  in
  {
    name = "phase-king";
    describe =
      Printf.sprintf
        "Phase-King consensus, n=%d, one Byzantine camp-splitter" n;
    make;
  }

(* -------------------------------------------- shared-memory constructions *)

module SP = Sharedmem.Protocol.Make (Consensus.Objects.Bool_value)
module Ac_demoted = Consensus.Constructions.Ac_of_vac (SP.Vac)

(* One invocation of a Section-5 construction over the register world,
   every process taking exactly one register operation per tick
   ([Fixed_steps 1]): the explorer branches on the within-tick operation
   order, i.e. lock-step interleavings of the Gafni AC registers. *)
let sharedmem_model ~name ~describe ~use_ac ~n ~inputs () =
  let make () =
    let monitor = Bool_monitor.create () in
    let outputs = ref [] in
    let outcome = ref None in
    let run oracle =
      let eng = Engine.create ~seed:1L () in
      Engine.set_oracle eng (Some oracle);
      let world =
        Sharedmem.World.create eng ~steps:(Sharedmem.World.Fixed_steps 1) ()
      in
      let shared = ref None in
      Array.iteri (fun i v -> Bool_monitor.record_initial monitor ~pid:i v) inputs;
      for i = 0 to n - 1 do
        ignore
          (Engine.spawn eng ~name:(fun () -> Printf.sprintf "sm-%d" i) (fun ectx ->
               let s =
                 match !shared with
                 | Some s -> s
                 | None ->
                     let s = SP.create_shared ~n world in
                     shared := Some s;
                     s
               in
               let ctx =
                 { SP.shared = s; proc = { Sharedmem.World.world; me = i; ectx } }
               in
               let out =
                 if use_ac then
                   Types.vac_of_ac (Ac_demoted.invoke ctx ~round:1 inputs.(i))
                 else SP.Vac.invoke ctx ~round:1 inputs.(i)
               in
               outputs := (i, out) :: !outputs;
               Bool_monitor.record_output monitor ~round:1 ~pid:i out)
            : Engine.pid)
      done;
      outcome := Some (Engine.run eng)
    in
    let violations () =
      let vs =
        if use_ac then Bool_monitor.check_ac monitor
        else Bool_monitor.check_vac monitor
      in
      List.map fmt_violation vs
      @
      match !outcome with
      | Some Engine.Quiescent -> []
      | Some o -> [ "termination: run ended " ^ outcome_str o ]
      | None -> [ "termination: model never ran" ]
    in
    let digest () =
      Printf.sprintf "outputs=[%s] outcome=%s"
        (String.concat ";"
           (List.map
              (fun (i, out) ->
                Printf.sprintf "p%d:%s(%b)" i
                  (Types.vac_confidence out)
                  (Types.vac_value out))
              (List.sort compare !outputs)))
        (match !outcome with Some o -> outcome_str o | None -> "unrun")
    in
    { run; violations; digest; fingerprint = None }
  in
  { name; describe; make }

let vac2ac ?(n = 2) ?inputs () =
  let inputs =
    match inputs with
    | Some a -> a
    | None -> Array.init n (fun i -> i mod 2 = 0)
  in
  sharedmem_model ~name:"vac2ac"
    ~describe:
      (Printf.sprintf
         "two-AC => VAC construction over registers (Section 5), n=%d" n)
    ~use_ac:false ~n ~inputs ()

let ac_of_vac ?(n = 2) ?inputs () =
  let inputs =
    match inputs with
    | Some a -> a
    | None -> Array.init n (fun i -> i mod 2 = 0)
  in
  sharedmem_model ~name:"ac-of-vac"
    ~describe:
      (Printf.sprintf
         "VAC => AC demotion over the two-AC construction (Section 5), n=%d" n)
    ~use_ac:true ~n ~inputs ()

(* ---------------------------------- universal construction (Herlihy) ----
   Herlihy's lock-free universal construction over registers and
   consensus cells, instantiated at a FIFO queue: n processes each
   enqueue a distinct value and then dequeue.  Every register operation
   takes one engine step ([Fixed_steps 1]), so the explorer branches
   over interleavings of the construction's register accesses.  The
   [broken] variant replaces the decideNext consensus with a plain
   last-write-wins register write — indistinguishable on sequential
   schedules, but a racing schedule silently drops the losing enqueue
   from the chain and both dequeues return the same value, which the
   Wing–Gong check convicts. *)

module Uc_queue = Obj.Smem.Make (Obj.Queue)

let uc_queue ?(broken = false) ?(n = 2) () =
  let make () =
    let uc_ref = ref None in
    let outcome = ref None in
    let run oracle =
      let eng = Engine.create ~seed:1L () in
      Engine.set_oracle eng (Some oracle);
      let world =
        Sharedmem.World.create eng ~steps:(Sharedmem.World.Fixed_steps 1) ()
      in
      let uc = Uc_queue.create ~n ~broken () in
      uc_ref := Some uc;
      for i = 0 to n - 1 do
        ignore
          (Engine.spawn eng ~name:(fun () -> Printf.sprintf "uc-%d" i) (fun ectx ->
               let p = { Sharedmem.World.world; me = i; ectx } in
               List.iteri
                 (fun k op ->
                   ignore
                     (Uc_queue.exec uc p ~cid:((i lsl 20) lor k) op
                       : Obj.Queue.resp))
                 [ Obj.Queue.Enq (Printf.sprintf "v%d" i); Obj.Queue.Deq ])
            : Engine.pid)
      done;
      outcome := Some (Engine.run eng)
    in
    let violations () =
      match !uc_ref with
      | None -> [ "termination: model never ran" ]
      | Some uc ->
          Uc_queue.violations uc
          @ (match !outcome with
            | Some Engine.Quiescent -> []
            | Some o -> [ "termination: run ended " ^ outcome_str o ]
            | None -> [ "termination: model never ran" ])
    in
    let digest () =
      match !uc_ref with
      | None -> "unrun"
      | Some uc ->
          Printf.sprintf "chain=[%s] final=%s"
            (String.concat ";"
               (List.map
                  (fun (cid, o) ->
                    Printf.sprintf "%d:%s" cid (Obj.Queue.op_to_string o))
                  (Uc_queue.chain uc)))
            (Uc_queue.final_digest uc)
    in
    { run; violations; digest; fingerprint = None }
  in
  {
    name = (if broken then "uc-queue-broken" else "uc-queue");
    describe =
      Printf.sprintf
        "Herlihy universal construction at a FIFO queue, n=%d%s" n
        (if broken then " with consensus replaced by last-write-wins"
         else "");
    make;
  }

(* ------------------------------------------------------------- toy AC ----
   A two-phase message-passing adopt-commit for [2t < n], purpose-built as
   the mutant harness: every processor broadcasts its proposal, waits for
   the first [n - t] proposals, broadcasts a (saw-agreement?, value) flag,
   waits for the first [n - t] flags and outputs

     commit u   when every flag seen is (true, u)     -- correct detector
     adopt  u   when some flag seen is (true, u)
     adopt  own otherwise.

   Two true flags cannot disagree (their proposal quorums intersect), so
   the correct detector satisfies AC coherence on every schedule.  The
   [broken] variant commits on ANY true flag — sound on the default FIFO
   schedule (everyone sees the same quorum) but violating coherence under
   reordering, which is exactly what the explorer must catch. *)

type toy_msg = Propose of bool | Flag of bool * bool

let toy_ac ?(broken = false) ?(n = 3) ?inputs ~check_termination () =
  let t = (n - 1) / 2 in
  let quorum = n - t in
  let inputs =
    match inputs with Some a -> a | None -> Array.init n (fun i -> i < n - 1)
  in
  let make () =
    let monitor = Bool_monitor.create () in
    let outputs = Array.make n None in
    (* Protocol phase per process (0 = not started, 1 = proposed,
       2 = flagged, 3 = done).  Part of the fingerprint: two states with
       equal inboxes can still differ in who has already broadcast. *)
    let stages = Array.make n 0 in
    let outcome = ref None in
    let netref = ref None in
    let run oracle =
      let eng = Engine.create ~seed:1L () in
      Engine.set_oracle eng (Some oracle);
      let net = Async_net.create eng ~n () in
      netref := Some net;
      Array.iteri (fun i v -> Bool_monitor.record_initial monitor ~pid:i v) inputs;
      for i = 0 to n - 1 do
        ignore
          (Engine.spawn eng ~name:(fun () -> Printf.sprintf "toy-%d" i) (fun _ectx ->
               Async_net.broadcast net ~src:i (Propose inputs.(i));
               stages.(i) <- 1;
               let props =
                 Engine.await (Async_net.inbox_queue net i) (fun () ->
                     let got =
                       List.filter_map
                         (fun env ->
                           match env.Async_net.payload with
                           | Propose v -> Some v
                           | Flag _ -> None)
                         (Async_net.inbox net i)
                     in
                     if List.length got >= quorum then Some (take quorum got)
                     else None)
               in
               let flag =
                 match props with
                 | v :: rest when List.for_all (Bool.equal v) rest -> (true, v)
                 | _ -> (false, inputs.(i))
               in
               Async_net.broadcast net ~src:i (Flag (fst flag, snd flag));
               stages.(i) <- 2;
               let flags =
                 Engine.await (Async_net.inbox_queue net i) (fun () ->
                     let got =
                       List.filter_map
                         (fun env ->
                           match env.Async_net.payload with
                           | Flag (ok, v) -> Some (ok, v)
                           | Propose _ -> None)
                         (Async_net.inbox net i)
                     in
                     if List.length got >= quorum then Some (take quorum got)
                     else None)
               in
               let out =
                 if broken then
                   match List.find_opt fst flags with
                   | Some (_, u) -> Types.AC_commit u (* BUG: one vote commits *)
                   | None -> Types.AC_adopt inputs.(i)
                 else if List.for_all fst flags then
                   Types.AC_commit (snd (List.hd flags))
                 else
                   match List.find_opt fst flags with
                   | Some (_, u) -> Types.AC_adopt u
                   | None -> Types.AC_adopt inputs.(i)
               in
               outputs.(i) <- Some out;
               stages.(i) <- 3;
               Bool_monitor.record_output monitor ~round:1 ~pid:i
                 (Types.vac_of_ac out))
            : Engine.pid)
      done;
      outcome := Some (Engine.run eng)
    in
    let violations () =
      List.map fmt_violation (Bool_monitor.check_ac monitor)
      @
      if check_termination then
        match !outcome with
        | Some Engine.Quiescent -> []
        | Some o -> [ "termination: run ended " ^ outcome_str o ]
        | None -> [ "termination: model never ran" ]
      else []
    in
    let digest () =
      Printf.sprintf "outputs=[%s] outcome=%s"
        (String.concat ";"
           (Array.to_list
              (Array.mapi
                 (fun i out ->
                   match out with
                   | None -> Printf.sprintf "p%d:-" i
                   | Some o ->
                       Printf.sprintf "p%d:%s(%b)" i (Types.ac_confidence o)
                         (Types.ac_value o))
                 outputs)))
        (match !outcome with Some o -> outcome_str o | None -> "unrun")
    in
    (* The fingerprint hashes what determines the protocol's future —
       at ANY fault budget, not just 0: per-node inbox views, phases,
       outputs so far, the envelopes still on the wire, and the drops
       the explorer may still inject ([ctx.drops_left]).  Two states
       that differ only in which in-flight message was dropped have
       different wire multisets, and two states reached by spending
       different fractions of the budget differ in [drops_left], so
       equal hashes really do mean equal reachable futures.

       Inbox views are canonicalized by phase, which is where DPOR's
       strict win over sleep-set reduction on this model comes from:
       - stage 3 (done): the inbox can never be read again — drop it.
       - stage 2 (flags awaited): the proposal prefix was consumed into
         the already-broadcast flag; only Flag envelopes, in arrival
         order, can still influence the process.
       - stages 0-1: the full inbox in arrival order (proposal order
         decides the flag about to be computed).
       Distinct within-class delivery permutations that sleep must
       enumerate converge on equal canonical states once the consumed
       prefix stops mattering, and the fingerprint cache cuts them. *)
    let fingerprint (ctx : fp_ctx) =
      match !netref with
      | None -> 0
      | Some net ->
          let snapshot =
            List.init n (fun i ->
                match stages.(i) with
                | 3 -> []
                | 2 ->
                    List.filter_map
                      (fun env ->
                        match env.Async_net.payload with
                        | Flag _ -> Some (env.Async_net.src, env.Async_net.payload)
                        | Propose _ -> None)
                      (Async_net.inbox net i)
                | _ ->
                    List.map
                      (fun env -> (env.Async_net.src, env.Async_net.payload))
                      (Async_net.inbox net i))
          in
          let wire =
            List.map
              (fun env ->
                (env.Async_net.src, env.Async_net.dst, env.Async_net.payload))
              (Async_net.in_flight net)
          in
          (* Not [Hashtbl.hash]: its default limits examine only ~10
             meaningful leaves, so two states differing deep in an inbox
             hash equal and the explorer would prune live subtrees. *)
          Hashtbl.hash_param 4096 4096
            ( snapshot,
              wire,
              ctx.drops_left,
              Array.to_list stages,
              Array.to_list outputs )
    in
    { run; violations; digest; fingerprint = Some fingerprint }
  in
  {
    name = (if broken then "toy-ac-broken" else "toy-ac");
    describe =
      Printf.sprintf "two-phase message-passing AC, n=%d%s" n
        (if broken then " with an intentionally broken commit detector"
         else "");
    make;
  }

(* ----------------------------------------------------------- omega AC ----
   The failure-detector suspicion race, boiled down to the smallest
   model the explorer can branch on: node 0 is the Ω-elected
   coordinator and broadcasts its input; every other node arms a
   suspicion deadline for it.  Under an oracle the proposal is
   delivered at t=1 and the deadline also fires at t=1, so the
   same-tick "sched" choice decides which a waiter observes first —
   exactly the timing uncertainty a real detector lives with.

   The correct (indulgent) rule ignores suspicion for the decision:
   suspecting the coordinator is just a note, the waiter still decides
   the proposed value when it arrives, so every schedule agrees on
   node 0's input.  The [broken] variant decides its OWN input the
   moment the deadline beats the delivery — trusting the detector for
   safety — and the schedule that fires the deadline first diverges
   from the coordinator, which the explorer must convict. *)

type omega_msg = OProp of bool

let omega_ac ?(broken = false) ?(n = 2) ?inputs () =
  if n < 2 then invalid_arg "Models.omega_ac: n >= 2 required";
  let inputs =
    match inputs with
    | Some a ->
        if Array.length a <> n then invalid_arg "Models.omega_ac: |inputs| <> n";
        a
    | None -> Array.init n (fun i -> i mod 2 = 0)
  in
  let make () =
    let decisions = Array.make n None in
    let suspected = Array.make n false in
    let outcome = ref None in
    let run oracle =
      let eng = Engine.create ~seed:1L () in
      Engine.set_oracle eng (Some oracle);
      let net = Async_net.create eng ~n () in
      ignore
        (Engine.spawn eng ~name:(fun () -> "omega-0") (fun _ectx ->
             Async_net.broadcast net ~src:0 (OProp inputs.(0));
             decisions.(0) <- Some inputs.(0))
          : Engine.pid);
      for i = 1 to n - 1 do
        ignore
          (Engine.spawn eng ~name:(fun () -> Printf.sprintf "omega-%d" i) (fun _ectx ->
               (* deadline waker: same delay as the oracle's base message
                  latency, so it ties with the delivery tick *)
               let suspicion = Engine.queue eng in
               Engine.schedule eng ~delay:1 (fun () ->
                   if decisions.(i) = None then begin
                     suspected.(i) <- true;
                     Engine.signal suspicion
                   end);
               let res =
                 Engine.await_any [ Async_net.inbox_queue net i; suspicion ]
                   (fun () ->
                     let prop =
                       List.find_map
                         (fun env ->
                           match env.Async_net.payload with OProp v -> Some v)
                         (Async_net.inbox net i)
                     in
                     match prop with
                     | Some v -> Some (`Proposed v)
                     | None ->
                         if broken && suspected.(i) then Some `Suspected
                         else None)
               in
               match res with
               | `Proposed v -> decisions.(i) <- Some v
               | `Suspected ->
                   (* BUG: the detector's word taken for safety *)
                   decisions.(i) <- Some inputs.(i))
            : Engine.pid)
      done;
      outcome := Some (Engine.run eng)
    in
    let violations () =
      let decided = Array.to_list decisions |> List.filter_map Fun.id in
      (match decided with
      | v :: rest when not (List.for_all (Bool.equal v) rest) ->
          [
            Printf.sprintf "agreement: decisions diverge [%s]"
              (String.concat ";" (List.map string_of_bool decided));
          ]
      | _ -> [])
      @ (if List.for_all (fun v -> Array.exists (Bool.equal v) inputs) decided
         then []
         else [ "validity: decision is nobody's input" ])
      @
      match !outcome with
      | Some Engine.Quiescent when Array.for_all (( <> ) None) decisions -> []
      | Some Engine.Quiescent -> [ "termination: a node never decided" ]
      | Some o -> [ "termination: run ended " ^ outcome_str o ]
      | None -> [ "termination: model never ran" ]
    in
    let digest () =
      Printf.sprintf "decisions=[%s] suspected=[%s] outcome=%s"
        (String.concat ";"
           (Array.to_list
              (Array.map
                 (function None -> "-" | Some v -> string_of_bool v)
                 decisions)))
        (String.concat ";"
           (Array.to_list (Array.map string_of_bool suspected)))
        (match !outcome with Some o -> outcome_str o | None -> "unrun")
    in
    { run; violations; digest; fingerprint = None }
  in
  {
    name = (if broken then "omega-ac-broken" else "omega-ac");
    describe =
      Printf.sprintf
        "Omega-coordinator decision vs suspicion-deadline race, n=%d%s" n
        (if broken then " deciding its own input on first suspicion"
         else " (indulgent: suspicion never decides)");
    make;
  }

(* ------------------------------------------------------------- registry *)

let names =
  [
    "ben-or";
    "phase-king";
    "vac2ac";
    "ac-of-vac";
    "toy-ac";
    "toy-ac-broken";
    "uc-queue";
    "uc-queue-broken";
    "omega-ac";
    "omega-ac-broken";
  ]

let of_name ?n name ~fault_budget =
  match name with
  | "ben-or" -> benor ?n ~check_termination:(fault_budget = 0) ()
  | "phase-king" -> phase_king ?n ()
  | "vac2ac" -> vac2ac ?n ()
  | "ac-of-vac" -> ac_of_vac ?n ()
  | "toy-ac" -> toy_ac ?n ~check_termination:(fault_budget <= 1) ()
  | "toy-ac-broken" ->
      toy_ac ~broken:true ?n ~check_termination:(fault_budget <= 1) ()
  | "uc-queue" -> uc_queue ?n ()
  | "uc-queue-broken" -> uc_queue ~broken:true ?n ()
  | "omega-ac" -> omega_ac ?n ()
  | "omega-ac-broken" -> omega_ac ~broken:true ?n ()
  | _ ->
      invalid_arg
        (Printf.sprintf "Mcheck.Models.of_name: unknown model %S (known: %s)"
           name (String.concat ", " names))
