type 'cmd slot_decision = {
  winner : int;
  batch : 'cmd list;
  instances : int;
  duration : int;
}

type 'cmd slot = {
  opener : int;
  mutable proposals : (int * 'cmd list) list;  (* registration order *)
  mutable decision : 'cmd slot_decision option;
}

type floor = { owner : int; upto : int; state : string; cids : int list }

type 'cmd t = {
  engine : Dsim.Engine.t;
  backend : Backend.t;
  seed : int64;
  live : unit -> int list;
  view : unit -> int list option;
  topology : Dsim.Engine.queue;  (* signalled when [live]/[view] change *)
  changed : Dsim.Engine.queue;  (* signalled on every slot or floor change *)
  slots : (int, 'cmd slot) Hashtbl.t;
  mutable floor : floor option;
  mutable decided_count : int;
  mutable instances_total : int;
}

let create ~engine ~backend ~seed ~live ?view ?topology () =
  let view = match view with Some v -> v | None -> fun () -> Some (live ()) in
  let topology =
    match topology with Some q -> q | None -> Dsim.Engine.queue engine
  in
  {
    engine;
    backend;
    seed;
    live;
    view;
    topology;
    changed = Dsim.Engine.queue engine;
    slots = Hashtbl.create 64;
    floor = None;
    decided_count = 0;
    instances_total = 0;
  }

(* Partition-aware quorum view over an [Async_net]: with the network
   whole every live replica counts (crash-only behaviour unchanged);
   under a cut only the side holding a strict majority of the live
   replicas may decide, and with no such side every slot stalls until
   heal. *)
let majority_view ~net ~live () =
  match Netsim.Async_net.partition_groups net with
  | None -> Some (live ())
  | Some groups ->
      let lv = live () in
      let best =
        List.fold_left
          (fun best g ->
            let lg = List.filter (fun p -> List.mem p g) lv in
            match best with
            | Some b when List.length b >= List.length lg -> best
            | _ -> Some lg)
          None groups
      in
      (match best with
      | Some b when 2 * List.length b > List.length lv -> Some b
      | _ -> None)

let mix seed ~slot ~attempt =
  Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int ((slot * 7919) + attempt + 1))

let compute t slot_no s =
  let module B = (val t.backend : Backend.S) in
  let proposers = List.sort compare (List.map fst s.proposals) in
  let batch_of p = List.assoc p s.proposals in
  (* A replica that brought commands prefers itself; an empty-handed
     joiner backs whoever opened the slot. *)
  let prefs =
    List.map (fun p -> (p, if batch_of p <> [] then p else s.opener)) proposers
  in
  let candidates = List.sort_uniq compare (List.map snd prefs) in
  let attempt = ref 0 in
  let duration = ref 0 in
  let run_instance k ~unanimous =
    let inputs =
      Array.of_list (List.map (fun (_, pref) -> unanimous || pref = k) prefs)
    in
    let b, d =
      B.decide ~seed:(mix t.seed ~slot:slot_no ~attempt:!attempt) ~inputs
    in
    incr attempt;
    duration := !duration + d;
    b
  in
  let winner =
    match List.find_opt (fun k -> run_instance k ~unanimous:false) candidates with
    | Some k -> k
    | None -> (
        (* every candidate instance decided false: retry pass with
           unanimous support for the first non-empty proposer, which the
           backend must ratify by validity *)
        match List.find_opt (fun p -> batch_of p <> []) proposers with
        | Some fb ->
            ignore (run_instance fb ~unanimous:true : bool);
            fb
        | None -> s.opener (* all batches empty: nothing to order *))
  in
  {
    winner;
    batch = batch_of winner;
    instances = !attempt;
    duration = !duration;
  }

let publish t slot_no s d =
  let module B = (val t.backend : Backend.S) in
  s.decision <- Some d;
  Dsim.Engine.signal t.changed;
  t.decided_count <- t.decided_count + 1;
  t.instances_total <- t.instances_total + d.instances;
  Dsim.Engine.emitk t.engine ~tag:"rsm" (fun () ->
      Printf.sprintf "slot %d <- proposer %d (%d cmds, %d %s instances, %d vt)"
        slot_no d.winner
        (List.length d.batch)
        d.instances B.name d.duration)

let propose t ~slot ~pid ~batch =
  let s =
    match Hashtbl.find_opt t.slots slot with
    | Some s -> s
    | None ->
        let s = { opener = pid; proposals = []; decision = None } in
        Hashtbl.replace t.slots slot s;
        ignore
          (Dsim.Engine.spawn t.engine
             ~name:(Printf.sprintf "rsm-slot-%d" slot)
             (fun ctx ->
               (* Quorum gate: a slot advances only when [view] grants
                  a decision-capable member set — under a majority-less
                  partition it returns None and the slot stalls until
                  heal (DESIGN §12/§14 fix: cuts now block consensus-
                  internal progress, not just client traffic). *)
               ignore
                 (Dsim.Engine.await_any [ t.changed; t.topology ] (fun () ->
                      match t.view () with
                      | Some members
                        when List.for_all
                               (fun p -> List.mem_assoc p s.proposals)
                               members ->
                          Some members
                      | _ -> None)
                   : int list);
               let d = compute t slot s in
               if d.duration > 0 then Dsim.Engine.sleep ctx d.duration;
               publish t slot s d)
            : Dsim.Engine.pid);
        s
  in
  if not (List.mem_assoc pid s.proposals) then begin
    s.proposals <- s.proposals @ [ (pid, batch) ];
    Dsim.Engine.signal t.changed
  end

let opened t ~slot = Hashtbl.mem t.slots slot

let opener t ~slot =
  Option.map (fun s -> s.opener) (Hashtbl.find_opt t.slots slot)

let decided t ~slot =
  match Hashtbl.find_opt t.slots slot with Some s -> s.decision | None -> None

let decided_count t = t.decided_count
let instances_total t = t.instances_total

(* The shared slot cache models what live peers remember.  When the
   whole cluster is down there is nobody left to remember anything, so
   an honest recovery must start from the disks alone. *)
let forget_volatile t =
  Hashtbl.reset t.slots;
  t.floor <- None;
  Dsim.Engine.signal t.changed

let reseed t ~slot ~winner ~batch =
  if not (Hashtbl.mem t.slots slot) then begin
    Hashtbl.replace t.slots slot
      {
        opener = winner;
        proposals = [ (winner, batch) ];
        decision = Some { winner; batch; instances = 0; duration = 0 };
      };
    Dsim.Engine.signal t.changed;
    Dsim.Engine.emitk t.engine ~tag:"rsm" (fun () ->
        Printf.sprintf "slot %d reseeded from replica %d's WAL (%d cmds)" slot
          winner (List.length batch))
  end

let set_floor t ~owner ~upto ~state ~cids =
  match t.floor with
  | Some f when f.upto >= upto -> ()
  | _ ->
      t.floor <- Some { owner; upto; state; cids };
      Dsim.Engine.signal t.changed

let floor t = t.floor
let changed t = t.changed
