type 'msg envelope = {
  env_id : int;
  src : int;
  dst : int;
  sent_at : int;
  payload : 'msg;
}

type policy_verdict = Deliver | Drop | Duplicate of int | Delay_extra of int

type 'msg node = {
  mutable delivered : 'msg envelope list;  (* newest first *)
  mutable crashed : bool;
  mutable handler : ('msg envelope -> unit) option;
}

type 'msg t = {
  eng : Dsim.Engine.t;
  size : int;
  latency : Latency.t;
  policy : 'msg envelope -> policy_verdict;
  rng : Dsim.Rng.t;
  retain_inbox : bool;
  nodes : 'msg node array;
  inbox_qs : Dsim.Engine.queue array;  (* signalled on retained deliveries *)
  topology_q : Dsim.Engine.queue;  (* signalled on crash/restart/cut/heal *)
  mutable partition : int array option;  (* node -> group id; -1 isolated *)
  mutable partition_groups : int list list option;  (* as installed *)
  mutable next_env : int;
  mutable sent : int;
  mutable deliveries : int;
  (* in-flight envelopes: deliveries are flat engine events (one
     registered kind, arg = arena slot) instead of a closure each *)
  mutable k_deliver : int;
  pending : 'msg envelope Dsim.Arena.t;
}

(* The delivery event: free the slot first (the handler below may send,
   recycling it), then run what used to be the per-delivery closure. *)
let run_delivery t slot =
  let env = Dsim.Arena.take t.pending slot in
  let node = t.nodes.(env.dst) in
  if not node.crashed then begin
    if t.retain_inbox then begin
      node.delivered <- env :: node.delivered;
      Dsim.Engine.signal t.inbox_qs.(env.dst);
      (* Per-message tracing is only affordable at inbox-retention
         scale; counter-based protocols run millions of messages.
         The thunk keeps quiet engines allocation-free here. *)
      Dsim.Engine.emitk t.eng ~pid:env.dst ~tag:"recv" (fun () ->
          Printf.sprintf "#%d from %d" env.env_id env.src)
    end;
    t.deliveries <- t.deliveries + 1;
    match node.handler with Some f -> f env | None -> ()
  end

let create eng ~n ?(latency = Latency.Uniform (1, 10)) ?(policy = fun _ -> Deliver)
    ?(retain_inbox = true) () =
  if n <= 0 then invalid_arg "Async_net.create: n must be positive";
  let t =
    {
      eng;
      size = n;
      latency;
      policy;
      rng = Dsim.Rng.split (Dsim.Engine.rng eng);
      retain_inbox;
      nodes = Array.init n (fun _ -> { delivered = []; crashed = false; handler = None });
      inbox_qs = Array.init n (fun _ -> Dsim.Engine.queue eng);
      topology_q = Dsim.Engine.queue eng;
      partition = None;
      partition_groups = None;
      next_env = 0;
      sent = 0;
      deliveries = 0;
      k_deliver = -1;
      pending = Dsim.Arena.create ~limit:Dsim.Engine.max_arg;
    }
  in
  t.k_deliver <- Dsim.Engine.register_kind eng (fun slot -> run_delivery t slot);
  t

let n t = t.size
let engine t = t.eng

let check_id t id what =
  if id < 0 || id >= t.size then
    invalid_arg (Printf.sprintf "Async_net.%s: bad node id %d" what id)

let same_side t ~src ~dst =
  match t.partition with
  | None -> true
  | Some groups ->
      let gs = groups.(src) and gd = groups.(dst) in
      gs >= 0 && gs = gd

let deliver t env ~delay =
  (* The delivery only touches [env.dst]'s node state (inbox, handler),
     so label it with the recipient: same-tick deliveries to distinct
     recipients commute, which mcheck's reduction exploits. *)
  let slot = Dsim.Arena.alloc t.pending env in
  Dsim.Engine.schedule_kind t.eng ~owner:env.dst ~delay ~kind:t.k_deliver slot

(* The choice points an oracle sees on a send; constants, so consulting
   them allocates nothing. *)
let delay_choice =
  {
    Dsim.Engine.c_domain = "net.delay";
    c_arity = 0;
    c_owners = [||];
    c_time = 0;
    c_seqs = [||];
    c_creators = [||];
  }

let fault_choice = { delay_choice with Dsim.Engine.c_domain = "net.fault"; c_arity = 2 }

(* One delivery's delay.  Under an oracle, exploration owns the latency:
   a base delay of 1 (never 0 — the recipient-commutativity argument
   needs deliveries to land strictly after the sending tick) plus
   whatever slack the oracle asks for.  The latency model and its RNG
   are not consulted at all then. *)
let delay t ~src ~dst ~extra =
  match Dsim.Engine.oracle t.eng with
  | Some o -> 1 + extra + o.Dsim.Engine.choose delay_choice
  | None -> extra + Latency.draw t.latency ~src ~dst ~rng:t.rng

let send t ~src ~dst msg =
  check_id t src "send";
  check_id t dst "send";
  t.sent <- t.sent + 1;
  if t.nodes.(src).crashed then ()
  else if not (same_side t ~src ~dst) then
    Dsim.Engine.emitk t.eng ~pid:src ~tag:"drop-partition" (fun () ->
        Printf.sprintf "to %d" dst)
  else begin
    let env =
      {
        env_id = t.next_env;
        src;
        dst;
        sent_at = Dsim.Engine.now t.eng;
        payload = msg;
      }
    in
    t.next_env <- t.next_env + 1;
    match t.policy env with
    | Drop ->
        Dsim.Engine.emitk t.eng ~pid:src ~tag:"drop-policy" (fun () ->
            Printf.sprintf "to %d" dst)
    | Deliver ->
        (* Under an oracle, every policy-approved message is additionally
           a drop-or-deliver choice point (0 = deliver, 1 = drop), so the
           explorer can enumerate message-loss scenarios on top of
           delivery orders. *)
        let oracle_drop =
          match Dsim.Engine.oracle t.eng with
          | Some o -> o.Dsim.Engine.choose fault_choice = 1
          | None -> false
        in
        if oracle_drop then
          Dsim.Engine.emitk t.eng ~pid:src ~tag:"drop-explore" (fun () ->
              Printf.sprintf "to %d" dst)
        else deliver t env ~delay:(delay t ~src ~dst ~extra:0)
    | Delay_extra extra -> deliver t env ~delay:(delay t ~src ~dst ~extra)
    | Duplicate copies ->
        for _ = 0 to copies do
          deliver t env ~delay:(delay t ~src ~dst ~extra:0)
        done
  end

let broadcast t ~src msg =
  for dst = 0 to t.size - 1 do
    send t ~src ~dst msg
  done

let broadcast_to t ~src ~dsts msg = List.iter (fun dst -> send t ~src ~dst msg) dsts

let inbox t id =
  check_id t id "inbox";
  List.rev t.nodes.(id).delivered

(* Scheduled-but-undelivered envelopes, in env_id order.  Walks the
   pending arena — O(arena); meant for model-checker fingerprints, not
   hot paths. *)
let in_flight t =
  List.sort (fun a b -> compare a.env_id b.env_id) (Dsim.Arena.live t.pending)

let inbox_count t id pred =
  check_id t id "inbox_count";
  List.fold_left
    (fun acc env -> if pred env then acc + 1 else acc)
    0 t.nodes.(id).delivered

let distinct_senders t id pred =
  check_id t id "distinct_senders";
  let seen = Array.make t.size false in
  let count = ref 0 in
  List.iter
    (fun env ->
      if pred env && not seen.(env.src) then begin
        seen.(env.src) <- true;
        incr count
      end)
    t.nodes.(id).delivered;
  !count

let set_handler t id f =
  check_id t id "set_handler";
  t.nodes.(id).handler <- Some f

let inbox_queue t id =
  check_id t id "inbox_queue";
  t.inbox_qs.(id)

let topology t = t.topology_q

let crash t id =
  check_id t id "crash";
  if not t.nodes.(id).crashed then begin
    t.nodes.(id).crashed <- true;
    Dsim.Engine.signal t.topology_q;
    Dsim.Engine.emit t.eng ~pid:id ~tag:"crash-net" "node crashed"
  end

let restart t id =
  check_id t id "restart";
  if t.nodes.(id).crashed then begin
    t.nodes.(id).crashed <- false;
    Dsim.Engine.signal t.topology_q;
    Dsim.Engine.emit t.eng ~pid:id ~tag:"restart-net" "node restarted"
  end

let is_crashed t id =
  check_id t id "is_crashed";
  t.nodes.(id).crashed

let crashed_count t =
  Array.fold_left (fun acc node -> if node.crashed then acc + 1 else acc) 0 t.nodes

let set_partition t groups =
  let map = Array.make t.size (-1) in
  List.iteri
    (fun gid members ->
      List.iter
        (fun id ->
          check_id t id "set_partition";
          map.(id) <- gid)
        members)
    groups;
  t.partition <- Some map;
  t.partition_groups <- Some groups;
  Dsim.Engine.signal t.topology_q;
  Dsim.Engine.emitk t.eng ~tag:"partition" (fun () ->
      String.concat " | "
        (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups))

let heal t =
  t.partition <- None;
  t.partition_groups <- None;
  Dsim.Engine.signal t.topology_q;
  Dsim.Engine.emit t.eng ~tag:"heal" "partition removed"

let partition_groups t = t.partition_groups

let messages_sent t = t.sent
let messages_delivered t = t.deliveries
