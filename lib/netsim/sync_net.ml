type 'msg strategy = {
  strategy_name : string;
  act :
    round:int ->
    byz:int ->
    view:'msg option array ->
    dst:int ->
    rng:Dsim.Rng.t ->
    'msg option;
}

type 'msg t = {
  eng : Dsim.Engine.t;
  size : int;
  byz : bool array;
  strategy : 'msg strategy;
  rng : Dsim.Rng.t;
  mutable round : int;
  pending : 'msg option array;
  submitted : bool array;
  participating : bool array;
  (* round -> per-destination rows: results.(dst).(src) *)
  results : (int, 'msg option array array) Hashtbl.t;
  completed : Dsim.Engine.queue;  (* signalled when a round's results land *)
}

let create eng ~n ~byzantine ~strategy =
  if n <= 0 then invalid_arg "Sync_net.create: n must be positive";
  let byz = Array.make n false in
  List.iter
    (fun id ->
      if id < 0 || id >= n then
        invalid_arg (Printf.sprintf "Sync_net.create: bad byzantine id %d" id);
      if byz.(id) then
        invalid_arg (Printf.sprintf "Sync_net.create: duplicate byzantine id %d" id);
      byz.(id) <- true)
    byzantine;
  let participating = Array.init n (fun i -> not byz.(i)) in
  {
    eng;
    size = n;
    byz;
    strategy;
    rng = Dsim.Rng.split (Dsim.Engine.rng eng);
    round = 0;
    pending = Array.make n None;
    submitted = Array.make n false;
    participating;
    results = Hashtbl.create 16;
    completed = Dsim.Engine.queue eng;
  }

let n t = t.size
let engine t = t.eng

let check_id t id what =
  if id < 0 || id >= t.size then
    invalid_arg (Printf.sprintf "Sync_net.%s: bad id %d" what id)

let is_byzantine t id =
  check_id t id "is_byzantine";
  t.byz.(id)

let byzantine_count t =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.byz

let current_round t = t.round

let all_submitted t =
  let ok = ref true in
  for i = 0 to t.size - 1 do
    if t.participating.(i) && not t.submitted.(i) then ok := false
  done;
  !ok

(* Build the delivery matrix once every participating correct processor has
   handed in its message for the round, then open the next round. *)
let try_complete t =
  if all_submitted t then begin
    let view = Array.copy t.pending in
    let round = t.round in
    let matrix =
      Array.init t.size (fun dst ->
          Array.init t.size (fun src ->
              if t.byz.(src) then
                t.strategy.act ~round ~byz:src ~view ~dst ~rng:t.rng
              else if t.participating.(src) then t.pending.(src)
              else None))
    in
    Hashtbl.replace t.results round matrix;
    Dsim.Engine.signal t.completed;
    Array.fill t.pending 0 t.size None;
    Array.fill t.submitted 0 t.size false;
    t.round <- round + 1;
    Dsim.Engine.emitk t.eng ~tag:"sync-round" (fun () ->
        Printf.sprintf "round %d complete" round)
  end

let exchange t ~me msg =
  check_id t me "exchange";
  if t.byz.(me) then invalid_arg "Sync_net.exchange: Byzantine ids run no code";
  if not t.participating.(me) then invalid_arg "Sync_net.exchange: crashed";
  if t.submitted.(me) then invalid_arg "Sync_net.exchange: double submission";
  let round = t.round in
  t.pending.(me) <- Some msg;
  t.submitted.(me) <- true;
  try_complete t;
  let row =
    Dsim.Engine.await t.completed (fun () ->
        match Hashtbl.find_opt t.results round with
        | Some matrix -> Some matrix.(me)
        | None -> None)
  in
  row

let crash t id =
  check_id t id "crash";
  if t.participating.(id) then begin
    t.participating.(id) <- false;
    t.submitted.(id) <- false;
    t.pending.(id) <- None;
    Dsim.Engine.emit t.eng ~pid:id ~tag:"crash-sync" "left the barrier";
    try_complete t
  end
