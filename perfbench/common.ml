(* What every workload shares: the clock, the failure ledger that
   becomes [attempted]/[failed]/[correct], the human-readable report
   lines, and the result a workload hands back to the CLI. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

(* Seconds on the monotonic clock. *)
let now () = 1e-9 *. float_of_int (now_ns ())

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

exception Gate of string
(** The anchor gate: the workload no longer exercises the algorithm
    (its spanner keeps more than 90% of m, or the protocol finishes in
    one iteration). The run fails hard: no result line. *)

let anchor_gate ~what ~m ~spanner ~iterations =
  let ratio = float_of_int spanner /. float_of_int m in
  if ratio > 0.9 || iterations <= 1 then
    raise
      (Gate
         (Printf.sprintf
            "%s: spanner keeps %.4f of m=%d after %d iteration(s); the \
             anchor must keep <= 0.9 and take >= 2"
            what ratio m iterations))

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable rejected : string list;  (* run-level reasons, newest first *)
}

let tally () = { attempted = 0; failed = 0; rejected = [] }

(* One certified operation: [ok] false counts it as failed, and the
   first few reasons go to stderr so a failing run explains itself. *)
let attempt t ok why =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 5 then prerr_endline ("perfbench: failed: " ^ Lazy.force why)
  end

(* A whole-run defect (a cross-check or hygiene bound broken): the run
   reports correct = false. *)
let reject t why =
  prerr_endline ("perfbench: rejected: " ^ why);
  t.rejected <- why :: t.rejected

let correct t = t.failed = 0 && t.rejected = []

type result = {
  tally : tally;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;
}

let line name value unit note =
  Printf.printf "  %-36s %16.6g %-6s %s\n" name value unit note

(* A percentile line carries the sample count it was read from. *)
let pline name s p scale unit =
  line name (scale *. Perfkit.Stats.percentile s p) unit
    (Printf.sprintf "(p%d of n=%d)" p (Perfkit.Stats.count s))

(* Scratch files live in the checkout, under one directory; each is
   removed again when the run ends, and the directory with the last. *)
let workdir = ".perfbench"
let scratch = ref []

let scratch_file name =
  (try Unix.mkdir workdir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path =
    Filename.concat (Sys.getcwd ())
      (Filename.concat workdir (Printf.sprintf "%d.%s" (Unix.getpid ()) name))
  in
  scratch := path :: !scratch;
  path

let remove_scratch () =
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) !scratch;
  scratch := [];
  try Unix.rmdir workdir with Unix.Unix_error _ -> ()

(* A growable buffer of samples: a run keeps every sample it takes. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let stats s = Perfkit.Stats.of_array (Array.sub s.data 0 s.len)

(* Host-speed normalisation.

   On a shared 2-vCPU KVM guest, every process computes 20-40% faster
   or slower for tens of seconds at a time as neighbours come and go.
   A fixed kernel of the benchmark's own code — sorting, hashing and
   short-lived allocation, no repository code — is timed next to the
   measured work, and each wall-clock time is scaled by
   [nominal / median kernel time]: a reported time reads as the time
   on a host where the kernel takes [nominal] seconds. Over repeated
   bootstraps on that guest this halved the spread between runs on
   average, though not in every period. The raw medians are printed
   beside the scaled ones. *)
let reference () =
  let a = Array.init 20_000 (fun i -> ((i * 7919) + 13) land 0xFFFFF) in
  Array.sort compare a;
  let h = Hashtbl.create 4096 in
  for i = 0 to 20_000 do
    Hashtbl.replace h ((i * 31) land 4095) [ i; i + 1 ]
  done;
  let l = List.init 20_000 (fun i -> i * 3) in
  ignore (Sys.opaque_identity (a, h, List.rev l))

let nominal = 0.010

let calibrate speed k =
  for _ = 1 to k do
    push speed (snd (timed reference))
  done

(* Multiply a time measured alongside [speed]'s samples by this. *)
let factor speed = nominal /. Perfkit.Stats.median (stats speed)

(* [f ()] with the kernel timed right before and after it: the result,
   the raw time and the time scaled by the host speed of that moment. *)
let scaled f =
  let speed = samples () in
  calibrate speed 4;
  let r, dt = timed f in
  calibrate speed 4;
  (r, dt, dt *. factor speed)
