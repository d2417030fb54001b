(* In-memory span recorder for the traced run.

   A span is (name, parent, start, stop) in monotonic nanoseconds.  The
   recorder is single-domain: spans for work that ran on worker domains
   are added after the fact from timestamps the workers stored.  Spans
   stay in growable arrays until {!write} dumps them at exit.

   Self time is a span's duration minus the part of its interval that
   its children cover (the union of the children's intervals, clipped
   to the parent), so overlapping children are not counted twice. *)

type t = {
  mutable n : int;
  mutable name : string array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
}

let root = -1

let create () =
  let cap = 1024 in
  {
    n = 0;
    name = Array.make cap "";
    parent = Array.make cap root;
    start = Array.make cap 0;
    stop = Array.make cap 0;
  }

let grow t =
  let cap = 2 * Array.length t.start in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name "";
  t.parent <- ext t.parent root;
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0

(** [add t ~name ~parent ~start ~stop] records a finished span and
    returns its id. *)
let add t ~name ~parent ~start ~stop =
  if t.n = Array.length t.start then grow t;
  let id = t.n in
  t.name.(id) <- name;
  t.parent.(id) <- parent;
  t.start.(id) <- start;
  t.stop.(id) <- stop;
  t.n <- id + 1;
  id

(** [enter t ~parent name] opens a span now; close it with {!leave}. *)
let enter t ?(parent = root) name =
  let now = Clock.now_ns () in
  add t ~name ~parent ~start:now ~stop:now

let leave t id = t.stop.(id) <- Clock.now_ns ()

(** [span t ?parent name f] runs [f id] inside a span named [name]. *)
let span t ?parent name f =
  let id = enter t ?parent name in
  Fun.protect ~finally:(fun () -> leave t id) (fun () -> f id)

let count t = t.n
let duration t id = t.stop.(id) - t.start.(id)

(* Children of every span, each list in ascending start order. *)
let children t =
  let ch = Array.make t.n [] in
  for id = t.n - 1 downto 0 do
    let p = t.parent.(id) in
    if p >= 0 then ch.(p) <- id :: ch.(p)
  done;
  Array.map (List.sort (fun a b -> compare t.start.(a) t.start.(b))) ch

(* Length of the union of [kids]' intervals clipped to [lo, hi];
   [kids] ascend by start. *)
let covered t ~lo ~hi kids =
  let total = ref 0 and reach = ref lo in
  List.iter
    (fun k ->
      let s = Stdlib.max t.start.(k) !reach and e = Stdlib.min t.stop.(k) hi in
      if e > s then begin
        total := !total + (e - s);
        reach := e
      end)
    kids;
  !total

(** Self time of every span, indexed by id. *)
let self_times t =
  let ch = children t in
  Array.init t.n (fun id ->
      duration t id - covered t ~lo:t.start.(id) ~hi:t.stop.(id) ch.(id))

type agg = { calls : int; total_ns : int; self_ns : int }

(** Per-name totals: span count, summed duration, summed self time. *)
let aggregate t =
  let self = self_times t in
  let tbl = Hashtbl.create 32 in
  for id = 0 to t.n - 1 do
    let a =
      Option.value (Hashtbl.find_opt tbl t.name.(id)) ~default:{ calls = 0; total_ns = 0; self_ns = 0 }
    in
    Hashtbl.replace tbl t.name.(id)
      { calls = a.calls + 1; total_ns = a.total_ns + duration t id; self_ns = a.self_ns + self.(id) }
  done;
  tbl

(** Dump every span as CSV: id,parent,name,start_ns,stop_ns,self_ns. *)
let write t path =
  let self = self_times t in
  let oc = open_out path in
  output_string oc "id,parent,name,start_ns,stop_ns,self_ns\n";
  for id = 0 to t.n - 1 do
    Printf.fprintf oc "%d,%d,%s,%d,%d,%d\n" id t.parent.(id) t.name.(id) t.start.(id) t.stop.(id)
      self.(id)
  done;
  close_out oc
