(* Indulgent one-shot binary consensus driven by the Ω oracle.

   Classic single-decree Paxos with the coordinator elected by the
   failure detector: whoever the detector names leader runs
   prepare/accept rounds with round fencing (ballot = attempt * n +
   me, so ballots are globally unique and totally ordered), retry on
   timeout with exponential backoff, and adoption of the
   highest-ballot accepted value from the promise quorum.

   The split that makes it *indulgent* (safety never depends on the
   detector, only liveness):
   - acceptors never consult the detector — promised/accepted state
     and majority quorums alone fence rounds, so two ballots can
     never both decide different values even if the detector elects
     every process leader at once;
   - the detector is consulted only to decide *who bothers* running
     rounds, and again after the promise quorum (a coordinator that
     lost the lease abandons the round before sending accepts — this
     is the hook through which the Rotating mutant starves liveness
     without ever touching safety).

   Acceptor state ([promised]/[accepted]) is modelled as durable
   across crash–restart, as Paxos requires: a network-level crash
   silences a node (no sends, no receives) but does not erase what it
   promised.  Decisions spread by gossip piggybacked on heartbeats,
   so a decision reached on one side of a healed partition reaches
   everyone without extra machinery. *)

module Engine = Dsim.Engine
module Net = Netsim.Async_net

type msg =
  | Hb of bool option  (* heartbeat, carrying the sender's decision *)
  | Prepare of int
  | Promise of int * (int * bool) option
  | Accept of int * bool
  | Accepted of int
  | Nack of int

type report = {
  n : int;
  outcome : Engine.outcome;
  decisions : bool option array;
  decided_at : int option array;
  agreement_ok : bool;
  validity_ok : bool;
  all_live_decided : bool;
  first_decision : int option;  (* virtual time of the earliest decision *)
  last_decision : int option;  (* ... and of the latest *)
  heartbeats_sent : int;
  suspicions : int;
  false_suspicions : int;
  unsuspicions : int;
  omega_changes : int;
  omega_stable_at : int option;
  messages_sent : int;
  virtual_time : int;
  engine : Engine.t;
}

(* Round state a coordinator shares with its message handler. *)
type round = {
  mutable ballot : int;  (* 0 = no round in flight *)
  mutable promises : (int * bool) option list;
  mutable acks : int;
  mutable nacked : bool;
}

type nodes = {
  oracle : Oracle.t;
  decisions : bool option array;
  decided_at : int option array;
  heartbeats_sent : int ref;
  stop : unit -> unit;
}

let start ~net ~params ~mutant ~inputs ~on_decide =
  let engine = Net.engine net and n = Net.n net in
  let maj = (n / 2) + 1 in
  let stopped = ref false in
  let heartbeats_sent = ref 0 in
  (* acceptor + learner state; durable across crash-restart *)
  let promised = Array.make n 0 in
  let accepted = Array.make n None in
  let decisions = Array.make n None in
  let decided_at = Array.make n None in
  let rounds = Array.init n (fun _ -> { ballot = 0; promises = []; acks = 0; nacked = false }) in
  (* [changed.(me)]: [me]'s round or decision changed, or the run
     stopped *)
  let changed = Array.init n (fun _ -> Engine.queue engine) in
  let is_live p = not (Net.is_crashed net p) in
  (* The time is recorded before [on_decide], which may settle the
     engine and so move the clock. *)
  let decide me v =
    if decisions.(me) = None then begin
      decisions.(me) <- Some v;
      decided_at.(me) <- Some (Engine.now engine);
      Engine.signal changed.(me);
      Engine.emitk engine ~tag:"detect" (fun () ->
          Printf.sprintf "decide %d value=%b" me v);
      on_decide me v
    end
  in
  (* [peers.(me)]: every node but [me], ascending *)
  let peers =
    Array.init n (fun me -> List.filter (fun p -> p <> me) (List.init n Fun.id))
  in
  let send_heartbeat ~me =
    heartbeats_sent := !heartbeats_sent + (n - 1);
    Net.broadcast_to net ~src:me ~dsts:peers.(me) (Hb decisions.(me))
  in
  let oracle =
    Oracle.create ~engine ~n ~params ~mutant ~send_heartbeat ~is_live ()
  in
  (* acceptor / collector: runs at delivery time in scheduler context *)
  let handler me (env : msg Net.envelope) =
    let src = env.src in
    match env.payload with
    | Hb d ->
        if src <> me then Oracle.deliver_heartbeat oracle ~me ~from:src;
        (match d with Some v -> decide me v | None -> ())
    | Prepare b ->
        if b > promised.(me) then begin
          promised.(me) <- b;
          Net.send net ~src:me ~dst:(b mod n) (Promise (b, accepted.(me)))
        end
        else Net.send net ~src:me ~dst:(b mod n) (Nack b)
    | Accept (b, v) ->
        if b >= promised.(me) then begin
          promised.(me) <- b;
          accepted.(me) <- Some (b, v);
          Net.send net ~src:me ~dst:(b mod n) (Accepted b)
        end
        else Net.send net ~src:me ~dst:(b mod n) (Nack b)
    | Promise (b, acc) ->
        let r = rounds.(me) in
        if b = r.ballot then begin
          r.promises <- acc :: r.promises;
          Engine.signal changed.(me)
        end
    | Accepted b ->
        let r = rounds.(me) in
        if b = r.ballot then begin
          r.acks <- r.acks + 1;
          Engine.signal changed.(me)
        end
    | Nack b ->
        let r = rounds.(me) in
        if b = r.ballot then begin
          r.nacked <- true;
          Engine.signal changed.(me)
        end
  in
  for me = 0 to n - 1 do
    Net.set_handler net me (handler me)
  done;
  (* Coordinator: poll the detector; when it names us leader, run one
     fenced prepare/accept round against a deadline, doubling the
     round timeout (capped) on every failure. *)
  let poll_period = 11 in
  let coordinator me ctx =
    let attempt = ref 0 in
    let round_timeout = ref params.Timeout.initial in
    while (not !stopped) && decisions.(me) = None do
      if is_live me && Oracle.leader oracle ~me = me then begin
        incr attempt;
        let b = (!attempt * n) + me in
        let r = rounds.(me) in
        r.ballot <- b;
        r.promises <- [];
        r.acks <- 0;
        r.nacked <- false;
        Engine.emitk engine ~tag:"detect" (fun () ->
            Printf.sprintf "round %d ballot=%d timeout=%d" me b !round_timeout);
        let deadline = Engine.now engine + !round_timeout in
        (* The waits below read the clock, so they name [Engine.clock]
           and notice the deadline at the first event of its tick; this
           event makes sure the clock gets there. *)
        Engine.schedule engine ~delay:!round_timeout ignore;
        let waits = [ changed.(me); Engine.clock engine ] in
        Net.broadcast net ~src:me (Prepare b);
        let phase1 =
          Engine.await_any waits (fun () ->
              if !stopped || decisions.(me) <> None then Some `Stop
              else if r.nacked then Some `Fail
              else if List.length r.promises >= maj then Some `Quorum
              else if Engine.now engine >= deadline then Some `Fail
              else None)
        in
        (match phase1 with
        | `Stop -> ()
        | `Fail ->
            r.ballot <- 0;
            round_timeout := min (2 * !round_timeout) params.Timeout.cap
        | `Quorum ->
            (* indulgence hook: re-confirm the lease before accepts *)
            if Oracle.leader oracle ~me <> me then begin
              r.ballot <- 0;
              Engine.emitk engine ~tag:"detect" (fun () ->
                  Printf.sprintf "round %d ballot=%d abandoned: lease lost" me b)
            end
            else begin
              let v =
                List.fold_left
                  (fun best acc ->
                    match (best, acc) with
                    | best, None -> best
                    | None, some -> some
                    | Some (b1, _), Some (b2, _) ->
                        if b2 > b1 then acc else best)
                  None r.promises
                |> function
                | Some (_, v) -> v
                | None -> inputs.(me)
              in
              Net.broadcast net ~src:me (Accept (b, v));
              let phase2 =
                Engine.await_any waits (fun () ->
                    if !stopped || decisions.(me) <> None then Some `Stop
                    else if r.nacked then Some `Fail
                    else if r.acks >= maj then Some `Quorum
                    else if Engine.now engine >= deadline then Some `Fail
                    else None)
              in
              r.ballot <- 0;
              match phase2 with
              | `Stop -> ()
              | `Fail ->
                  round_timeout := min (2 * !round_timeout) params.Timeout.cap
              | `Quorum ->
                  decide me v;
                  (* eager decision broadcast; heartbeats re-gossip it *)
                  Net.broadcast_to net ~src:me ~dsts:peers.(me) (Hb (Some v))
            end)
      end;
      if (not !stopped) && decisions.(me) = None then Engine.sleep ctx poll_period
    done
  in
  for me = 0 to n - 1 do
    ignore
      (Engine.spawn engine
         ~name:(fun () -> Printf.sprintf "coord%d" me)
         (coordinator me))
  done;
  Oracle.start oracle;
  {
    oracle;
    decisions;
    decided_at;
    heartbeats_sent;
    stop =
      (fun () ->
        stopped := true;
        Array.iter Engine.signal changed;
        Oracle.stop oracle);
  }

let run ?(n = 4) ?(seed = 1L) ?(params = Timeout.default) ?(mutant = Oracle.Honest)
    ?inputs ?(horizon = 5000) ?(max_events = 2_000_000) ?(quiet = false) ?policy
    ?install () =
  let inputs =
    match inputs with
    | Some a ->
        if Array.length a <> n then
          invalid_arg "Detect.Runner.run: |inputs| <> n";
        a
    | None ->
        (* disagreeing defaults so the protocol has something to solve *)
        Array.init n (fun i -> i mod 2 = 0)
  in
  let engine = Engine.create ~seed ~tracing:(not quiet) () in
  let net = Net.create engine ~n ?policy ~retain_inbox:false () in
  (* The last of the [n] nodes to decide stops the detector and the
     coordinators, so the engine can go quiescent.  It must be all [n]
     nodes, not just the currently-live ones: a node crashed now may
     restart later, and only live heartbeat gossip can hand it the
     decision — stopping early would strand it undecided forever.  A
     permanently-crashed node merely keeps the run going to the
     horizon. *)
  let undecided = ref n and stop = ref ignore in
  let nodes =
    start ~net ~params ~mutant ~inputs ~on_decide:(fun _ _ ->
        decr undecided;
        if !undecided = 0 then !stop ())
  in
  stop := nodes.stop;
  let decisions = nodes.decisions in
  Option.iter (fun f -> f net) install;
  let outcome = Engine.run ~until:horizon ~max_events engine in
  nodes.stop ();
  let decided_list =
    Array.to_list decisions |> List.filter_map Fun.id
  in
  let agreement_ok =
    match decided_list with
    | [] -> true
    | v :: rest -> List.for_all (( = ) v) rest
  in
  let validity_ok =
    (* binary validity: any decision must be some process's input *)
    List.for_all (fun v -> Array.exists (( = ) v) inputs) decided_list
  in
  let all_live_decided =
    decided_list <> []
    && List.for_all
         (fun p -> Net.is_crashed net p || decisions.(p) <> None)
         (List.init n Fun.id)
  in
  let times = Array.to_list nodes.decided_at |> List.filter_map Fun.id in
  let st = Oracle.stats nodes.oracle in
  {
    n;
    outcome;
    decisions;
    decided_at = nodes.decided_at;
    agreement_ok;
    validity_ok;
    all_live_decided;
    first_decision = (match times with [] -> None | l -> Some (List.fold_left min max_int l));
    last_decision = (match times with [] -> None | l -> Some (List.fold_left max min_int l));
    heartbeats_sent = !(nodes.heartbeats_sent);
    suspicions = st.Oracle.suspicions;
    false_suspicions = st.Oracle.false_suspicions;
    unsuspicions = st.Oracle.unsuspicions;
    omega_changes = st.Oracle.omega_changes;
    omega_stable_at = st.Oracle.omega_stable_at;
    messages_sent = Net.messages_sent net;
    virtual_time = Engine.now engine;
    engine;
  }
