type phase_tally = {
  seen1 : bool array;
  seen2 : bool array;
  mutable step1 : int;
  mutable reports_true : int;
  mutable reports_false : int;
  mutable step2 : int;
  mutable ratify_true : int;
  mutable ratify_false : int;
}

type t = {
  quorum : int;
  changed : Dsim.Engine.queue;
  phases : phase_tally Consensus.Phases.t;
}

let fresh n () =
  {
    seen1 = Array.make n false;
    seen2 = Array.make n false;
    step1 = 0;
    reports_true = 0;
    reports_false = 0;
    step2 = 0;
    ratify_true = 0;
    ratify_false = 0;
  }

(* what every absent phase reads as; never written *)
let empty = fresh 0 ()
let read t phase = Consensus.Phases.get t.phases phase
let phase_tally t phase = Consensus.Phases.obtain t.phases phase

let ingest t env =
  let src = env.Netsim.Async_net.src in
  match env.Netsim.Async_net.payload with
  | Messages.Report { phase; value } ->
      let p = phase_tally t phase in
      if not p.seen1.(src) then begin
        p.seen1.(src) <- true;
        p.step1 <- p.step1 + 1;
        if p.step1 = t.quorum then Dsim.Engine.signal t.changed;
        if value then p.reports_true <- p.reports_true + 1
        else p.reports_false <- p.reports_false + 1
      end
  | Messages.Ratify { phase; value } ->
      let p = phase_tally t phase in
      if not p.seen2.(src) then begin
        p.seen2.(src) <- true;
        p.step2 <- p.step2 + 1;
        if p.step2 = t.quorum then Dsim.Engine.signal t.changed;
        if value then p.ratify_true <- p.ratify_true + 1
        else p.ratify_false <- p.ratify_false + 1
      end
  | Messages.Question { phase } ->
      let p = phase_tally t phase in
      if not p.seen2.(src) then begin
        p.seen2.(src) <- true;
        p.step2 <- p.step2 + 1;
        if p.step2 = t.quorum then Dsim.Engine.signal t.changed
      end

let attach net ~me ~quorum =
  let t =
    {
      quorum;
      changed = Dsim.Engine.queue (Netsim.Async_net.engine net);
      phases =
        Consensus.Phases.create ~empty ~make:(fresh (Netsim.Async_net.n net));
    }
  in
  Netsim.Async_net.set_handler net me (ingest t);
  t

let changed t = t.changed
let step1_senders t ~phase = (read t phase).step1

let reports_for t ~phase value =
  let p = read t phase in
  if value then p.reports_true else p.reports_false

let step2_senders t ~phase = (read t phase).step2

let ratifies_for t ~phase value =
  let p = read t phase in
  if value then p.ratify_true else p.ratify_false

let forget_below t ~phase = Consensus.Phases.forget_below t.phases phase
