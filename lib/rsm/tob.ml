type 'cmd entry = { cid : int; op : 'cmd }

type 'cmd replica = {
  pending : (int, 'cmd entry) Hashtbl.t;  (* cid -> entry, not yet ordered *)
  delivered : (int, unit) Hashtbl.t;
  mutable next_slot : int;
  mutable delivered_count : int;
}

type recovery = { next_slot : int; delivered_cids : int list }

type 'cmd t = {
  engine : Dsim.Engine.t;
  net : 'cmd entry Netsim.Async_net.t;
  log : 'cmd entry Log.t;
  batch : int;
  deliver : pid:int -> slot:int -> 'cmd entry -> unit;
  on_slot_applied : pid:int -> slot:int -> fresh:'cmd entry list -> unit;
  on_install :
    pid:int -> owner:int -> upto:int -> state:string -> cids:int list -> unit;
  replicas : 'cmd replica array;
  changed : Dsim.Engine.queue array;
      (* per replica: signalled when its pending set, or [stopped], changes *)
  processes : Dsim.Engine.pid array;
  mutable stopped : bool;
}

let receive t pid e =
  let r = t.replicas.(pid) in
  if not (Hashtbl.mem r.delivered e.cid) then begin
    Hashtbl.replace r.pending e.cid e;
    Dsim.Engine.signal t.changed.(pid)
  end

let take_batch t r =
  let ids = Hashtbl.fold (fun cid _ acc -> cid :: acc) r.pending [] in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | cid :: rest -> Hashtbl.find r.pending cid :: take (k - 1) rest
  in
  take t.batch (List.sort compare ids)

let floor_ready t (r : _ replica) =
  match Log.floor t.log with
  | Some f when f.Log.upto >= r.next_slot -> Some f
  | _ -> None

(* State transfer: the replica is behind the advertised snapshot floor
   (the donor may have compacted the slots it would need to replay), so
   it adopts the donor's state wholesale instead of going slot by slot. *)
let install_floor t pid (r : _ replica) (f : Log.floor) =
  Hashtbl.reset r.delivered;
  List.iter
    (fun cid ->
      Hashtbl.replace r.delivered cid ();
      Hashtbl.remove r.pending cid)
    f.Log.cids;
  r.delivered_count <- List.length f.Log.cids;
  r.next_slot <- f.Log.upto + 1;
  t.on_install ~pid ~owner:f.Log.owner ~upto:f.Log.upto ~state:f.Log.state
    ~cids:f.Log.cids

let replica_loop t pid _ctx =
  let r = t.replicas.(pid) in
  let rec loop () =
    match floor_ready t r with
    | Some f ->
        install_floor t pid r f;
        loop ()
    | None -> (
        let verdict =
          Dsim.Engine.await_any [ t.changed.(pid); Log.changed t.log ] (fun () ->
              if floor_ready t r <> None then Some `Go
              else if
                Hashtbl.length r.pending > 0 || Log.opened t.log ~slot:r.next_slot
              then Some `Go
              else if t.stopped then Some `Exit
              else None)
        in
        match verdict with
        | `Exit -> ()
        | `Go when floor_ready t r <> None -> loop ()
        | `Go ->
            let slot = r.next_slot in
            Log.propose t.log ~slot ~pid ~batch:(take_batch t r);
            let d =
              Dsim.Engine.await (Log.changed t.log) (fun () ->
                  Log.decided t.log ~slot)
            in
            let fresh =
              List.filter
                (fun (e : _ entry) -> not (Hashtbl.mem r.delivered e.cid))
                d.Log.batch
            in
            List.iter
              (fun (e : _ entry) -> Hashtbl.remove r.pending e.cid)
              d.Log.batch;
            List.iter
              (fun (e : _ entry) ->
                Hashtbl.replace r.delivered e.cid ();
                r.delivered_count <- r.delivered_count + 1;
                t.deliver ~pid ~slot e)
              fresh;
            r.next_slot <- slot + 1;
            t.on_slot_applied ~pid ~slot ~fresh;
            loop ())
  in
  loop ()

let create ~engine ~net ~log ~batch ~deliver
    ?(on_slot_applied = fun ~pid:_ ~slot:_ ~fresh:_ -> ())
    ?(on_install = fun ~pid:_ ~owner:_ ~upto:_ ~state:_ ~cids:_ -> ()) () =
  if batch < 1 then invalid_arg "Tob.create: batch must be >= 1";
  let n = Netsim.Async_net.n net in
  let t =
    {
      engine;
      net;
      log;
      batch;
      deliver;
      on_slot_applied;
      on_install;
      replicas =
        Array.init n (fun _ ->
            {
              pending = Hashtbl.create 32;
              delivered = Hashtbl.create 64;
              next_slot = 0;
              delivered_count = 0;
            });
      changed = Array.init n (fun _ -> Dsim.Engine.queue engine);
      processes = Array.make n (-1);
      stopped = false;
    }
  in
  for pid = 0 to n - 1 do
    Netsim.Async_net.set_handler net pid (fun env ->
        receive t pid env.Netsim.Async_net.payload);
    t.processes.(pid) <-
      Dsim.Engine.spawn engine
        ~name:(Printf.sprintf "rsm-replica-%d" pid)
        (replica_loop t pid)
  done;
  t

let submit t ~replica e =
  if Netsim.Async_net.is_crashed t.net replica then false
  else begin
    receive t replica e;
    Netsim.Async_net.broadcast t.net ~src:replica e;
    true
  end

(* Under the in-memory (recoverable) model a crash leaves replica state
   intact; under the durable model it also loses what a real crash loses
   at the TOB layer: the undelivered pending set. *)
let crash t ~lose_pending pid =
  Dsim.Engine.kill t.engine t.processes.(pid);
  if lose_pending then begin
    Hashtbl.reset t.replicas.(pid).pending;
    Dsim.Engine.signal t.changed.(pid)
  end

let restart t ?recovery pid =
  if not (Dsim.Engine.alive t.engine t.processes.(pid)) then begin
    (match recovery with
    | None -> ()
    | Some rc ->
        let r = t.replicas.(pid) in
        Hashtbl.reset r.delivered;
        Hashtbl.reset r.pending;
        List.iter (fun cid -> Hashtbl.replace r.delivered cid ()) rc.delivered_cids;
        r.delivered_count <- List.length rc.delivered_cids;
        r.next_slot <- rc.next_slot;
        Dsim.Engine.signal t.changed.(pid));
    t.processes.(pid) <-
      Dsim.Engine.spawn t.engine
        ~name:(Printf.sprintf "rsm-replica-%d" pid)
        (replica_loop t pid)
  end

let delivered_count t ~pid = t.replicas.(pid).delivered_count

let delivered_cids t ~pid =
  Hashtbl.fold (fun cid _ acc -> cid :: acc) t.replicas.(pid).delivered []
  |> List.sort compare

let next_slot t ~pid = t.replicas.(pid).next_slot
let pending_count t ~pid = Hashtbl.length t.replicas.(pid).pending
let stop t =
  t.stopped <- true;
  Array.iter Dsim.Engine.signal t.changed
