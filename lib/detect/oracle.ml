(* Heartbeat failure detector over Dsim virtual time.

   Each node broadcasts heartbeats every [period] ticks (through a
   caller-supplied send callback, so the oracle never owns the
   network); each node keeps a per-peer deadline and suspects the peer
   when it passes without a heartbeat.  Timeouts adapt per
   [Timeout]: grow on suspicion, shrink on a late heartbeat — after
   finitely many mistakes every timeout exceeds the real message
   delay, which is exactly the eventually-perfect (◊P) guarantee.
   ◊S is the same suspicion sets read permissively, and Ω is derived:
   the minimum unsuspected process in a node's view.

   Lying mutants wrap the *query* surface only — the underlying
   machinery stays honest, the answers lie — because that is the
   adversary indulgent protocols must survive: [False_suspect v]
   permanently suspects the (correct) process [v]; [Rotating] answers
   every leader query with a fresh rotation so Ω never stabilises. *)

module Engine = Dsim.Engine

type mutant = Honest | False_suspect of int | Rotating

type stats = {
  mutable suspicions : int;
  mutable false_suspicions : int;  (* suspected peer was live *)
  mutable unsuspicions : int;
  mutable omega_changes : int;
  mutable omega_stable_at : int option;
}

type t = {
  engine : Engine.t;
  n : int;
  params : Timeout.params;
  mutant : mutant;
  send_heartbeat : me:int -> unit;
  is_live : int -> bool;
  suspected : bool array array;  (* suspected.(me).(peer) *)
  timeout : int array array;
  deadline : int array array;
  rotation : int array;  (* per-node Rotating query counter *)
  stats : stats;
  mutable last_view : int option;  (* agreed honest leader, if any *)
  mutable stopped : bool;
  mutable k_check : int;  (* flat deadline-waker kind; arg = me * n + from *)
}

let params t = t.params
let stats t = t.stats

(* Leader per [me]'s honest suspicion set; self is never suspected so
   the scan always lands on some p <= me. *)
let honest_leader t ~me =
  let rec go p =
    if p >= t.n then me else if not t.suspected.(me).(p) then p else go (p + 1)
  in
  go 0

(* The deterministic (counter-free) leader view used for stability
   tracking; for [Rotating] there is none — it never stabilises. *)
let stable_leader t ~me =
  match t.mutant with
  | Honest | Rotating -> honest_leader t ~me
  | False_suspect v ->
      let rec go p =
        if p >= t.n then if me <> v then me else (me + 1) mod t.n
        else if p <> v && not t.suspected.(me).(p) then p
        else go (p + 1)
      in
      go 0

let leader t ~me =
  match t.mutant with
  | Honest | False_suspect _ -> stable_leader t ~me
  | Rotating ->
      let k = t.rotation.(me) in
      t.rotation.(me) <- k + 1;
      k mod t.n

let suspects t ~me ~peer =
  match t.mutant with
  | Honest | Rotating -> t.suspected.(me).(peer)
  | False_suspect v -> peer = v || t.suspected.(me).(peer)

(* Ω-stability bookkeeping: whenever a suspicion set changes, recompute
   whether all live nodes agree on a leader.  [Rotating] is pinned
   unstable by construction. *)
let recheck_stability t =
  let view =
    match t.mutant with
    | Rotating -> None
    | _ -> (
        match List.filter t.is_live (List.init t.n Fun.id) with
        | [] -> None
        | l0 :: rest ->
            let v0 = stable_leader t ~me:l0 in
            if List.for_all (fun l -> stable_leader t ~me:l = v0) rest then
              Some v0
            else None)
  in
  if view <> t.last_view then begin
    t.last_view <- view;
    t.stats.omega_changes <- t.stats.omega_changes + 1;
    match view with
    | Some l ->
        t.stats.omega_stable_at <- Some (Engine.now t.engine);
        Engine.emitk t.engine ~tag:"detect" (fun () ->
            Printf.sprintf "omega stable: leader %d" l)
    | None ->
        t.stats.omega_stable_at <- None;
        Engine.emitk t.engine ~tag:"detect" (fun () -> "omega unstable")
  end

let suspect t ~me ~from =
  if not t.suspected.(me).(from) then begin
    t.suspected.(me).(from) <- true;
    t.timeout.(me).(from) <-
      Timeout.after_suspicion t.params t.timeout.(me).(from);
    if t.is_live me then begin
      t.stats.suspicions <- t.stats.suspicions + 1;
      if t.is_live from then
        t.stats.false_suspicions <- t.stats.false_suspicions + 1
    end;
    Engine.emitk t.engine ~tag:"detect" (fun () ->
        Printf.sprintf "suspect %d->%d timeout=%d" me from
          t.timeout.(me).(from));
    recheck_stability t
  end

let check t ~me ~from =
  if
    (not t.stopped)
    && Engine.now t.engine >= t.deadline.(me).(from)
    && not t.suspected.(me).(from)
  then suspect t ~me ~from

let create ~engine ~n ?(params = Timeout.default) ?(mutant = Honest)
    ~send_heartbeat ~is_live () =
  if not (Timeout.valid params) then invalid_arg "Detect.Oracle.create: invalid timeout parameters";
  let t =
  {
    engine;
    n;
    params;
    mutant;
    send_heartbeat;
    is_live;
    suspected = Array.init n (fun _ -> Array.make n false);
    timeout = Array.init n (fun _ -> Array.make n params.Timeout.initial);
    deadline = Array.init n (fun _ -> Array.make n 0);
    rotation = Array.make n 0;
    stats =
      {
        suspicions = 0;
        false_suspicions = 0;
        unsuspicions = 0;
        omega_changes = 0;
        (* everyone trusts 0 at birth — already stable; Rotating never is *)
        omega_stable_at = (if mutant = Rotating then None else Some 0);
      };
    last_view = (if mutant = Rotating then None else Some 0);
    stopped = false;
    k_check = -1;
  }
  in
  t.k_check <-
    Engine.register_kind engine (fun a -> check t ~me:(a / t.n) ~from:(a mod t.n));
  t

(* Arm (or re-arm) [me]'s deadline for [from] and schedule the waker
   that fires when it passes.  Wakers made stale by a fresh heartbeat
   see [now < deadline] and do nothing; once suspected, no waker is
   re-armed — the next transition can only come from a heartbeat,
   which re-arms on delivery. *)
let arm t ~me ~from =
  let tmo = t.timeout.(me).(from) in
  t.deadline.(me).(from) <- Engine.now t.engine + tmo;
  Engine.schedule_kind t.engine ~owner:(-1) ~delay:tmo ~kind:t.k_check
    ((me * t.n) + from)

let deliver_heartbeat t ~me ~from =
  if not t.stopped then begin
    if t.suspected.(me).(from) then begin
      t.suspected.(me).(from) <- false;
      t.timeout.(me).(from) <-
        Timeout.after_late_heartbeat t.params t.timeout.(me).(from);
      t.stats.unsuspicions <- t.stats.unsuspicions + 1;
      Engine.emitk t.engine ~tag:"detect" (fun () ->
          Printf.sprintf "trust %d->%d timeout=%d" me from
            t.timeout.(me).(from));
      recheck_stability t
    end;
    arm t ~me ~from
  end

let start t =
  for me = 0 to t.n - 1 do
    (* heartbeat sender: broadcasts every period while the run lasts *)
    ignore
      (Engine.spawn t.engine ~name:(fun () -> Printf.sprintf "hb%d" me) (fun ctx ->
           while not t.stopped do
             if t.is_live me then t.send_heartbeat ~me;
             Engine.sleep ctx t.params.Timeout.period
           done));
    (* initial deadlines for every peer *)
    for from = 0 to t.n - 1 do
      if from <> me then arm t ~me ~from
    done
  done

let stop t = t.stopped <- true
