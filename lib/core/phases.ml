type 'a t = {
  empty : 'a;
  make : unit -> 'a;
  mutable recs : 'a array;
  mutable low : int;  (* records below were forgotten *)
}

let create ~empty ~make = { empty; make; recs = [||]; low = 0 }

let get t phase =
  if phase >= 0 && phase < Array.length t.recs then t.recs.(phase) else t.empty

let obtain t phase =
  if phase < 0 then invalid_arg "Phases.obtain: negative phase";
  let len = Array.length t.recs in
  if phase >= len then begin
    let a = Array.make (max (phase + 1) (2 * len)) t.empty in
    Array.blit t.recs 0 a 0 len;
    t.recs <- a
  end;
  (* a late message may recreate a forgotten phase; forget it again *)
  if phase < t.low then t.low <- phase;
  let r = t.recs.(phase) in
  if r != t.empty then r
  else begin
    let r = t.make () in
    t.recs.(phase) <- r;
    r
  end

let forget_below t phase =
  for ph = t.low to min phase (Array.length t.recs) - 1 do
    t.recs.(ph) <- t.empty
  done;
  if phase > t.low then t.low <- phase
