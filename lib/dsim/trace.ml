type event = { time : int; pid : int option; tag : string; detail : string }

type t = {
  mutable rev_events : event list;
  mutable length : int;
  capacity : int option;
}

let create ?capacity () = { rev_events = []; length = 0; capacity }

let emit t ~time ?pid ~tag detail =
  let ev = { time; pid; tag; detail } in
  t.rev_events <- ev :: t.rev_events;
  t.length <- t.length + 1;
  match t.capacity with
  | Some cap when t.length > 2 * cap ->
      (* Amortized truncation: keep only the newest [cap] events. *)
      let rec take n acc = function
        | [] -> acc
        | _ when n = 0 -> acc
        | ev :: rest -> take (n - 1) (ev :: acc) rest
      in
      t.rev_events <- List.rev (take cap [] t.rev_events);
      t.length <- cap
  | Some _ | None -> ()

let reset t =
  t.rev_events <- [];
  t.length <- 0

let events t = List.rev t.rev_events

let with_tag t tag =
  List.rev (List.filter (fun ev -> String.equal ev.tag tag) t.rev_events)

let count t tag =
  List.fold_left
    (fun acc ev -> if String.equal ev.tag tag then acc + 1 else acc)
    0 t.rev_events

let length t = t.length

let last t k =
  let rec take n acc = function
    | [] -> acc
    | _ when n <= 0 -> acc
    | ev :: rest -> take (n - 1) (ev :: acc) rest
  in
  take k [] t.rev_events

let pp_event ppf ev =
  let pid = match ev.pid with None -> "-" | Some p -> string_of_int p in
  Format.fprintf ppf "t=%-8d pid=%-4s %-12s %s" ev.time pid ev.tag ev.detail

let dump ppf t =
  List.iter (fun ev -> Format.fprintf ppf "%a@." pp_event ev) (events t)
