(* Crash-safe on-disk checkpoint for a chunked sweep job.

   One checkpoint file records everything a killed run needs to resume
   exactly where it stopped: the job identity (so a resume against the
   wrong target/function/stride is refused instead of silently merging
   two sweeps), the chunk geometry, a per-chunk completion state with
   retry counts, the mismatch records of every completed chunk, and the
   last failure message of every chunk that has ever failed.

   Durability contract:
   - {!save} writes the whole encoding to [path ^ ".tmp"] and renames it
     over [path].  Rename within one directory is atomic on POSIX, so a
     reader (including a resuming run) only ever sees a complete old or
     complete new checkpoint — never a torn one.
   - The encoding carries a magic, a format version and a trailing FNV
     checksum over everything before it; {!decode} rejects truncated,
     corrupted or foreign files with a message instead of resuming from
     garbage. *)

type chunk_state = Pending | Done | Quarantined

type mismatch = { pattern : int; got : int; want : int }

type t = {
  identity : string;  (* free-form job fingerprint; must match to resume *)
  n_items : int;  (* sweep points in [0, n_items) *)
  chunk_size : int;
  state : chunk_state array;  (* one per chunk *)
  retries : int array;  (* failed attempts so far, one per chunk *)
  mismatches : mismatch array array;  (* per chunk, in pattern order *)
  errors : string array;  (* last failure message per chunk ("" = none) *)
}

let n_chunks ~n_items ~chunk_size = (n_items + chunk_size - 1) / chunk_size

let create ~identity ~n_items ~chunk_size =
  if n_items <= 0 then invalid_arg "Checkpoint.create: n_items must be positive";
  if chunk_size <= 0 then invalid_arg "Checkpoint.create: chunk_size must be positive";
  let nc = n_chunks ~n_items ~chunk_size in
  {
    identity;
    n_items;
    chunk_size;
    state = Array.make nc Pending;
    retries = Array.make nc 0;
    mismatches = Array.make nc [||];
    errors = Array.make nc "";
  }

(** [lo, hi) item range of chunk [i]. *)
let chunk_range t i =
  let lo = i * t.chunk_size in
  (lo, Stdlib.min t.n_items (lo + t.chunk_size))

let completed t =
  Array.fold_left (fun acc s -> if s = Done then acc + 1 else acc) 0 t.state

let quarantined t =
  Array.fold_left (fun acc s -> if s = Quarantined then acc + 1 else acc) 0 t.state

(* ------------------------------------------------------------------ *)
(* Binary encoding.                                                    *)
(* ------------------------------------------------------------------ *)

let magic = "RLSWEEP\x01"
let version = 1

(* FNV-1a over a Buffer prefix, continuing from [h]; 63-bit (after the
   final mask) so it round-trips through int. *)
let fnv_init = 0x0cbf29ce84222325

let fnv ?(h = fnv_init) (b : Buffer.t) =
  let h = ref h in
  for i = 0 to Buffer.length b - 1 do
    h := (!h lxor Char.code (Buffer.nth b i)) * 0x100000001b3
  done;
  !h

let add_int b v = Buffer.add_int64_le b (Int64.of_int v)

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s

(* The encoding, handed to [write] a few hundred bytes at a time with the
   checksum folded in as it goes: {!save} streams it straight to the
   file, so a checkpoint never holds a heap buffer the size of the file
   (the sweep engine saves after every batch). *)
let encode_to (write : Buffer.t -> unit) t =
  let b = Buffer.create 512 in
  let h = ref fnv_init in
  let flush () =
    h := fnv ~h:!h b;
    write b;
    Buffer.clear b
  in
  let spill () = if Buffer.length b >= 256 then flush () in
  Buffer.add_string b magic;
  add_int b version;
  add_str b t.identity;
  add_int b t.n_items;
  add_int b t.chunk_size;
  let nc = Array.length t.state in
  add_int b nc;
  Array.iter
    (fun s ->
      Buffer.add_char b (match s with Pending -> '\x00' | Done -> '\x01' | Quarantined -> '\x02');
      spill ())
    t.state;
  Array.iter
    (fun r ->
      add_int b r;
      spill ())
    t.retries;
  Array.iter
    (fun ms ->
      add_int b (Array.length ms);
      Array.iter
        (fun m ->
          add_int b m.pattern;
          add_int b m.got;
          add_int b m.want;
          spill ())
        ms;
      spill ())
    t.mismatches;
  Array.iter
    (fun e ->
      add_str b e;
      spill ())
    t.errors;
  flush ();
  add_int b (!h land max_int);
  write b

let encode t =
  let out = Buffer.create 4096 in
  encode_to (Buffer.add_buffer out) t;
  Buffer.contents out

(* Cursor-based decoding; every read is bounds-checked so a truncated
   file fails cleanly rather than raising out of [String.get]. *)
exception Bad of string

let decode (s : string) : (t, string) result =
  let pos = ref 0 in
  let len = String.length s in
  let need n what = if !pos + n > len then raise (Bad (Printf.sprintf "truncated (%s)" what)) in
  let get_int what =
    need 8 what;
    let v = Int64.to_int (String.get_int64_le s !pos) in
    pos := !pos + 8;
    v
  in
  let get_str what =
    let n = get_int what in
    if n < 0 || n > len - !pos then raise (Bad (Printf.sprintf "bad length (%s)" what));
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  try
    need (String.length magic) "magic";
    if String.sub s 0 (String.length magic) <> magic then raise (Bad "not a sweep checkpoint (bad magic)");
    pos := String.length magic;
    let v = get_int "version" in
    if v <> version then raise (Bad (Printf.sprintf "unsupported checkpoint version %d (want %d)" v version));
    let identity = get_str "identity" in
    let n_items = get_int "n_items" in
    let chunk_size = get_int "chunk_size" in
    if n_items <= 0 || chunk_size <= 0 then raise (Bad "non-positive geometry");
    let nc = get_int "n_chunks" in
    if nc <> n_chunks ~n_items ~chunk_size then raise (Bad "chunk count disagrees with geometry");
    need nc "state";
    let state =
      Array.init nc (fun i ->
          match s.[!pos + i] with
          | '\x00' -> Pending
          | '\x01' -> Done
          | '\x02' -> Quarantined
          | _ -> raise (Bad "bad chunk state"))
    in
    pos := !pos + nc;
    let retries = Array.init nc (fun _ -> get_int "retries") in
    let mismatches =
      Array.init nc (fun _ ->
          let k = get_int "mismatch count" in
          if k < 0 || k > (len - !pos) / 24 then raise (Bad "bad mismatch count");
          Array.init k (fun _ ->
              let pattern = get_int "mismatch" in
              let got = get_int "mismatch" in
              let want = get_int "mismatch" in
              { pattern; got; want }))
    in
    let errors = Array.init nc (fun _ -> get_str "error") in
    let body_end = !pos in
    let sum = get_int "checksum" in
    if !pos <> len then raise (Bad "trailing garbage");
    let b = Buffer.create body_end in
    Buffer.add_substring b s 0 body_end;
    if fnv b land max_int <> sum then raise (Bad "checksum mismatch (corrupted checkpoint)");
    Ok { identity; n_items; chunk_size; state; retries; mismatches; errors }
  with Bad msg -> Error ("checkpoint: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Atomic file IO.                                                     *)
(* ------------------------------------------------------------------ *)

let save ~path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  encode_to (Buffer.output_buffer oc) t;
  close_out oc;
  Sys.rename tmp path

let load ~path : (t, string) result =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      decode s
