(* Host speed, measured by the benchmark's own kernel.

   The shared 2-core host the baseline was measured on slows
   allocation-heavy code by up to half for seconds to minutes at a time,
   while register-bound loops barely move. Over four minutes, 20-second
   medians of Embedder.run on a 30x30 grid drifted from 100 ms to 157 ms;
   the kernel below drifted with them (correlation 0.87 over 1,700
   interleaved pairs), and the ratio of the two medians stayed within 3%.
   Over 10 runs of a workload, the quartile spread of a raw stage time
   reached 0.2 to 0.4; scaled by this kernel, it stayed under 0.1.

   Every end-to-end time is therefore reported at reference speed: the raw
   time multiplied by [reference_s] over the kernel time measured around
   it. The kernel calls no library, so a change to the libraries moves the
   metrics and not the scale. A change to the OCaml runtime or its GC
   settings would move both. *)

(* The kernel's median over 12,000 samples on the baseline container, so
   a time at reference speed reads like a wall time there. *)
let reference_s = 0.019

(* Cons and drop lists, then fill a hash table: minor-heap allocation,
   promotion and major-heap writes, the mix the pipeline's stages spend
   their time on. *)
let kernel () =
  let r = ref [] in
  for i = 1 to 200_000 do
    r := (i, i) :: !r;
    if i land 65535 = 0 then r := []
  done;
  let tbl = Hashtbl.create 16 in
  for i = 1 to 50_000 do
    Hashtbl.replace tbl (i * 7) i
  done;
  ignore (Sys.opaque_identity (List.length !r + Hashtbl.length tbl))

(* One kernel run on a fully collected heap, in seconds. The heap is
   collected again afterwards, so the kernel's garbage costs the caller's
   next step nothing. *)
let sample () =
  Gc.full_major ();
  let t0 = Monotonic_clock.now () in
  kernel ();
  let s = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
  Gc.full_major ();
  s
