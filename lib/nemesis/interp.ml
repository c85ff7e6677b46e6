type verdict_rule =
  | R_drop
  | R_duplicate of int
  | R_delay of int

type rule = { from_ : int; until_ : int; m : Plan.msg_match; rule : verdict_rule }

type handle = {
  crash : int -> unit;
  restart : int -> unit;
  partition : int list list -> unit;
  heal : unit -> unit;
}

let rules plan =
  List.filter_map
    (fun { Plan.at; action } ->
      match action with
      | Plan.Drop_matching (m, lasts) ->
          Some { from_ = at; until_ = at + lasts; m; rule = R_drop }
      | Plan.Duplicate_matching (m, copies, lasts) ->
          Some { from_ = at; until_ = at + lasts; m; rule = R_duplicate copies }
      | Plan.Delay_spike (m, extra, lasts) ->
          Some { from_ = at; until_ = at + lasts; m; rule = R_delay extra }
      | Plan.Crash _ | Plan.Restart _ | Plan.Partition _ | Plan.Heal
      | Plan.Torn_write _ | Plan.Sync_loss _ | Plan.Io_error _ | Plan.Disk_stall _
        ->
          None)
    plan

(* Storage windows compile the same way message windows do: into a pure
   policy keyed on the disk operation's time, with no activation state. *)
let store_policy plan =
  List.fold_left
    (fun acc { Plan.at; action } ->
      let window pids lasts =
        Store.Policy.rule ?pids ~from_:at ~until_:(at + lasts) ()
      in
      match action with
      | Plan.Torn_write (pids, lasts) ->
          { acc with Store.Policy.torn = window pids lasts :: acc.Store.Policy.torn }
      | Plan.Sync_loss (pids, lasts) ->
          {
            acc with
            Store.Policy.sync_loss = window pids lasts :: acc.Store.Policy.sync_loss;
          }
      | Plan.Io_error (pids, lasts) ->
          {
            acc with
            Store.Policy.io_error = window pids lasts :: acc.Store.Policy.io_error;
          }
      | Plan.Disk_stall (pids, extra, lasts) ->
          {
            acc with
            Store.Policy.stall = (window pids lasts, extra) :: acc.Store.Policy.stall;
          }
      | Plan.Crash _ | Plan.Restart _ | Plan.Partition _ | Plan.Heal
      | Plan.Drop_matching _ | Plan.Duplicate_matching _ | Plan.Delay_spike _ ->
          acc)
    Store.Policy.none plan

let verdict_of_rules rs (env : 'msg Netsim.Async_net.envelope) =
  (* The message's send time decides which windows are open; the first
     matching open window (in plan order) wins. *)
  let now = env.Netsim.Async_net.sent_at in
  let applies r =
    now >= r.from_ && now < r.until_
    && Plan.matches r.m ~src:env.Netsim.Async_net.src ~dst:env.Netsim.Async_net.dst
  in
  match List.find_opt applies rs with
  | None -> Netsim.Async_net.Deliver
  | Some { rule = R_drop; _ } -> Netsim.Async_net.Drop
  | Some { rule = R_duplicate copies; _ } -> Netsim.Async_net.Duplicate copies
  | Some { rule = R_delay extra; _ } -> Netsim.Async_net.Delay_extra extra

let policy plan =
  let rs = rules plan in
  fun env -> verdict_of_rules rs env

let schedule ~engine handle plan =
  let now = Dsim.Engine.now engine in
  List.iter
    (fun { Plan.at; action } ->
      let delay = max 0 (at - now) in
      let eff =
        match action with
        | Plan.Crash pid -> Some (fun () -> handle.crash pid)
        | Plan.Restart pid -> Some (fun () -> handle.restart pid)
        | Plan.Partition groups -> Some (fun () -> handle.partition groups)
        | Plan.Heal -> Some (fun () -> handle.heal ())
        | Plan.Drop_matching _ | Plan.Duplicate_matching _ | Plan.Delay_spike _
        | Plan.Torn_write _ | Plan.Sync_loss _ | Plan.Io_error _
        | Plan.Disk_stall _ ->
            None
      in
      Option.iter
        (fun run ->
          Dsim.Engine.schedule engine ~delay (fun () ->
              Dsim.Engine.emitk engine ~tag:"nemesis" (fun () ->
                  Plan.string_of_action action);
              run ()))
        eff)
    plan

let handle_of_net net =
  {
    crash = (fun pid -> Netsim.Async_net.crash net pid);
    restart = (fun pid -> Netsim.Async_net.restart net pid);
    partition = (fun groups -> Netsim.Async_net.set_partition net groups);
    heal = (fun () -> Netsim.Async_net.heal net);
  }

let install_rsm plan g =
  Rsm.Group.set_policy g (policy plan);
  Rsm.Group.set_store_policy g (store_policy plan);
  schedule ~engine:(Rsm.Group.engine g)
    {
      crash = Rsm.Group.crash g;
      restart = Rsm.Group.restart g;
      partition = Rsm.Group.partition g;
      heal = (fun () -> Rsm.Group.heal g);
    }
    plan

(* Detector runs own no disks, so a plan's storage windows are inert. *)
let install_detect plan net =
  schedule ~engine:(Netsim.Async_net.engine net) (handle_of_net net) plan

let install_shard plans groups =
  Array.iteri (fun s plan -> install_rsm plan groups.(s)) plans
