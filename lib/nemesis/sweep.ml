type 'o report = {
  outcomes : 'o list;
  cpu_seconds : float;
  wall_seconds : float;
}

let runs r = List.length r.outcomes

let runs_per_sec r =
  if r.wall_seconds <= 0. then 0. else float_of_int (runs r) /. r.wall_seconds

let failing ok r = List.filter (fun o -> not (ok o)) r.outcomes

let fault_headline name r plans =
  Printf.sprintf "%s campaign: %d runs, %d faults injected" name (runs r)
    (Plan.length (List.concat plans))

let pp_coverage ppf plans =
  Format.fprintf ppf "  coverage: %s@."
    (String.concat ", "
       (List.map
          (fun (k, c) -> Printf.sprintf "%s=%d" k c)
          (Plan.count_kinds (List.concat plans))))

module type CELL = sig
  type config
  type key
  type outcome

  val keys : config -> key list
  val seed : key -> int
  val run_key : config -> key -> outcome
  val headline : outcome report -> string
  val pp_body : Format.formatter -> outcome report -> unit
end

module type S = sig
  type config
  type outcome

  val run :
    ?jobs:int -> ?on_outcome:(outcome -> unit) -> config -> outcome report

  val pp_report : Format.formatter -> outcome report -> unit
  val pp_report_stable : Format.formatter -> outcome report -> unit
end

module Make (C : CELL) = struct
  let run ?(jobs = 1) ?on_outcome cfg =
    let t0_cpu = Sys.time () in
    let t0 = Unix.gettimeofday () in
    let work = Array.of_list (C.keys cfg) in
    let progress = Mutex.create () in
    let one key =
      let o = C.run_key cfg key in
      (* Completion order under jobs > 1 is nondeterministic; the mutex
         only keeps concurrent observers from interleaving output. *)
      Option.iter (fun f -> Mutex.protect progress (fun () -> f o)) on_outcome;
      o
    in
    let outcomes =
      Exec.Pool.map ~jobs ~seed_of:(fun i -> C.seed work.(i)) one work
    in
    {
      outcomes = Array.to_list outcomes;
      cpu_seconds = Sys.time () -. t0_cpu;
      wall_seconds = Unix.gettimeofday () -. t0;
    }

  let pp_report ppf r =
    Format.fprintf ppf "%s, %.1f runs/sec (%.2fs wall, %.2fs cpu)@."
      (C.headline r) (runs_per_sec r) r.wall_seconds r.cpu_seconds;
    C.pp_body ppf r

  let pp_report_stable ppf r =
    Format.fprintf ppf "%s@." (C.headline r);
    C.pp_body ppf r
end
