type profile = {
  n : int;
  horizon : int;
  max_actions : int;
  max_down : int;
  benign : bool;
  storage : bool;
}

let default ~n =
  {
    n;
    horizon = 800;
    max_actions = 10;
    max_down = (if n <= 1 then 0 else (n - 1) / 2);
    benign = false;
    storage = false;
  }

let generate p ~seed =
  if p.n < 1 then invalid_arg "Gen.generate: n must be >= 1";
  if p.horizon < 10 then invalid_arg "Gen.generate: horizon must be >= 10";
  if p.max_actions < 1 then invalid_arg "Gen.generate: max_actions must be >= 1";
  let rng = Dsim.Rng.create (Int64.of_int seed) in
  let steps = 1 + Dsim.Rng.int rng p.max_actions in
  (* Benign plans keep scripted actions in an early window so the
     appended restores still fit strictly before the horizon. *)
  let budget = if p.benign then max 1 (p.horizon * 3 / 5) else p.horizon in
  let down = ref [] in
  let live () =
    List.filter (fun i -> not (List.mem i !down)) (List.init p.n Fun.id)
  in
  let partitioned = ref false in
  let t = ref 0 in
  let rev_plan = ref [] in
  let push at action = rev_plan := { Plan.at; action } :: !rev_plan in
  let some_ids () =
    if Dsim.Rng.bool rng then None
    else begin
      let k = 1 + Dsim.Rng.int rng (max 1 (p.n / 2)) in
      let arr = Array.init p.n Fun.id in
      Dsim.Rng.shuffle rng arr;
      Some (List.sort compare (Array.to_list (Array.sub arr 0 k)))
    end
  in
  let some_match () = { Plan.srcs = some_ids (); dsts = some_ids () } in
  let window at =
    let cap =
      if p.benign then max 1 (p.horizon - at - 1) else max 1 (p.horizon / 3)
    in
    1 + Dsim.Rng.int rng cap
  in
  let random_partition () =
    let arr = Array.init p.n Fun.id in
    Dsim.Rng.shuffle rng arr;
    let cut = 1 + Dsim.Rng.int rng (p.n - 1) in
    let g1 = List.sort compare (Array.to_list (Array.sub arr 0 cut)) in
    let g2 = List.sort compare (Array.to_list (Array.sub arr cut (p.n - cut))) in
    [ g1; g2 ]
  in
  for _ = 1 to steps do
    t := !t + 1 + Dsim.Rng.int rng (max 1 (budget / p.max_actions));
    if !t < budget then begin
      let at = !t in
      let candidates =
        List.concat
          [
            (if List.length !down < p.max_down && live () <> [] then
               (* twice: crashes are the interesting faults *)
               [ `Crash; `Crash ]
             else []);
            (if !down <> [] then [ `Restart ] else []);
            (if p.n >= 2 then [ `Partition ] else []);
            (if !partitioned then [ `Heal ] else []);
            [ `Drop; `Dup; `Delay ];
            (if p.storage then [ `Torn; `Sync_loss; `Io_error; `Stall ] else []);
          ]
      in
      match Dsim.Rng.pick_list rng candidates with
      | `Crash ->
          let victim = Dsim.Rng.pick_list rng (live ()) in
          down := victim :: !down;
          push at (Plan.Crash victim)
      | `Restart ->
          let back = Dsim.Rng.pick_list rng !down in
          down := List.filter (fun i -> i <> back) !down;
          push at (Plan.Restart back)
      | `Partition ->
          partitioned := true;
          push at (Plan.Partition (random_partition ()))
      | `Heal ->
          partitioned := false;
          push at Plan.Heal
      | `Drop -> push at (Plan.Drop_matching (some_match (), window at))
      | `Dup ->
          push at
            (Plan.Duplicate_matching (some_match (), 1 + Dsim.Rng.int rng 3, window at))
      | `Delay ->
          push at
            (Plan.Delay_spike (some_match (), 5 + Dsim.Rng.int rng 50, window at))
      | `Torn -> push at (Plan.Torn_write (some_ids (), window at))
      | `Sync_loss -> push at (Plan.Sync_loss (some_ids (), window at))
      | `Io_error -> push at (Plan.Io_error (some_ids (), window at))
      | `Stall ->
          push at
            (Plan.Disk_stall (some_ids (), 10 + Dsim.Rng.int rng 90, window at))
    end
  done;
  (* A cut that never heals stalls every quorum-gated slot to the
     horizon by design (the DESIGN §12 fix: Rsm.Group's majority view),
     which would turn whole campaigns into liveness noise: generated
     plans therefore always heal — partitions are windows, only
     crashes may persist (in non-benign mode). *)
  if !partitioned && not p.benign then begin
    push (min (p.horizon - 1) (max (!t + 1) (p.horizon * 4 / 5))) Plan.Heal;
    partitioned := false
  end;
  if p.benign then begin
    (* Undo every lingering disturbance strictly before the horizon. *)
    let pending = List.length !down + if !partitioned then 1 else 0 in
    if pending > 0 then begin
      let start = max (!t + 1) budget in
      let gap = max 1 ((p.horizon - start) / (pending + 1)) in
      let rt = ref start in
      List.iter
        (fun pid ->
          push (min !rt (p.horizon - 1)) (Plan.Restart pid);
          rt := !rt + gap)
        (List.rev !down);
      down := [];
      if !partitioned then begin
        push (min !rt (p.horizon - 1)) Plan.Heal;
        partitioned := false
      end
    end
  end;
  Plan.normalize (List.rev !rev_plan)
