module Engine = Dsim.Engine
module Net = Netsim.Async_net

type t = {
  eng : Engine.t;
  network : Types.msg Net.t;
  members : Replica.t array;
  leaders : (Types.term, int) Hashtbl.t;
  applied : (int, Types.command) Hashtbl.t;  (* index -> first applied cmd *)
  mutable violation_log : string list;
}

let engine t = t.eng
let net t = t.network
let n t = Array.length t.members
let replica t i = t.members.(i)
let replicas t = t.members

let add_violation t msg = t.violation_log <- msg :: t.violation_log

let watch t i (ev : Replica.Event.t) =
  match ev with
  | Replica.Event.Became_leader { term } -> (
      match Hashtbl.find_opt t.leaders term with
      | Some other when other <> i ->
          add_violation t
            (Printf.sprintf "election-safety: term %d has leaders %d and %d" term
               other i)
      | Some _ -> ()
      | None -> Hashtbl.replace t.leaders term i)
  | Replica.Event.Applied { index; cmd } -> (
      match Hashtbl.find_opt t.applied index with
      | Some first when not (String.equal first cmd) ->
          add_violation t
            (Printf.sprintf
               "state-machine-safety: index %d applied as %S by %d but %S earlier"
               index cmd i first)
      | Some _ -> ()
      | None -> Hashtbl.replace t.applied index cmd)
  | Replica.Event.Became_candidate _ | Replica.Event.Stepped_down _
  | Replica.Event.Election_timeout _ | Replica.Event.Accepted_entries _
  | Replica.Event.Committed _ | Replica.Event.Crashed | Replica.Event.Restarted
  | Replica.Event.Recovered _ ->
      ()

let create ?(seed = 1L) ?(config = Replica.default_config)
    ?(latency = Netsim.Latency.Uniform (5, 20)) ?policy ~n () =
  let eng = Engine.create ~seed () in
  let network = Net.create eng ~n ~latency ?policy () in
  let t_ref = ref None in
  let members =
    Array.init n (fun i ->
        let rng = Dsim.Rng.split (Engine.rng eng) in
        let replica =
          Replica.create ~net:network ~id:i ~config
            ~apply:(fun _index _cmd -> ())
            ~rng ()
        in
        Replica.subscribe replica (fun ev ->
            match !t_ref with Some t -> watch t i ev | None -> ());
        replica)
  in
  let t =
    {
      eng;
      network;
      members;
      leaders = Hashtbl.create 16;
      applied = Hashtbl.create 16;
      violation_log = [];
    }
  in
  t_ref := Some t;
  t

let start t = Array.iter Replica.start t.members

let run_for t duration =
  let (_ : Engine.outcome) = Engine.run ~until:(Engine.now t.eng + duration) t.eng in
  ()

let run_until t ?(timeout = 100_000) pred =
  let deadline = Engine.now t.eng + timeout in
  let step = 50 in
  let rec go () =
    if pred () then true
    else if Engine.now t.eng >= deadline then false
    else
      match Engine.run ~until:(min deadline (Engine.now t.eng + step)) t.eng with
      | Engine.Time_limit -> go ()
      | Engine.Quiescent | Engine.Deadlock _ | Engine.Event_limit -> pred ()
  in
  go ()

let current_leader t =
  let best = ref None in
  Array.iteri
    (fun i r ->
      if (not (Replica.is_stopped r)) && Replica.role r = Replica.Leader then
        match !best with
        | Some (_, term) when term >= Replica.current_term r -> ()
        | Some _ | None -> best := Some (i, Replica.current_term r))
    t.members;
  Option.map fst !best

let crash t i = Replica.stop t.members.(i)
let restart t i = Replica.restart t.members.(i)
let partition t groups = Net.set_partition t.network groups
let heal t = Net.heal t.network

let propose_via_leader t cmd =
  match current_leader t with
  | None -> false
  | Some i -> Replica.propose t.members.(i) cmd

let violations t = List.rev t.violation_log

let check_log_matching t =
  let out = ref [] in
  let n = Array.length t.members in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = t.members.(i) and b = t.members.(j) in
      let len = min (Replica.log_length a) (Replica.log_length b) in
      (* Find the highest common index with equal terms, then require
         identical prefixes up to it. *)
      let common = ref 0 in
      for k = len downto 1 do
        if !common = 0 && Replica.log_term_at a k = Replica.log_term_at b k then
          common := k
      done;
      for k = 1 to !common do
        let ea = Replica.log_entry a k and eb = Replica.log_entry b k in
        if
          ea.Types.entry_term <> eb.Types.entry_term
          || not (String.equal ea.Types.cmd eb.Types.cmd)
        then
          out :=
            Printf.sprintf
              "log-matching: replicas %d and %d agree at index %d but differ at %d" i
              j !common k
            :: !out
      done
    done
  done;
  List.rev !out

let leaders_by_term t =
  Hashtbl.fold (fun term leader acc -> (term, leader) :: acc) t.leaders []
  |> List.sort compare
