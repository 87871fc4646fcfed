let recommended_jobs () = Domain.recommended_domain_count ()

module Obs = Soctam_obs.Obs

(* -- persistent worker team ------------------------------------------------ *)

module Team = struct
  (* Spawning per call costs one domain startup and teardown per
     slice, which on a small host dwarfs the work itself. A team spawns
     its domains once and parks them on a condition variable between
     rounds; submitting a round is a mutex broadcast, not a
     [Domain.spawn]. *)
  type t = {
    size : int;
    mutex : Mutex.t;
    start : Condition.t;  (* a new round was published, or shutdown *)
    finished : Condition.t;  (* the last worker left the current round *)
    mutable job : (int -> unit) option;
    mutable epoch : int;  (* bumps once per round; workers wait on it *)
    mutable active : int;  (* spawned workers still inside the round *)
    mutable crashed : exn option;  (* unexpected escape from a round body *)
    mutable stopped : bool;
    mutable domains : unit Domain.t array;
  }

  let size t = t.size

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  (* Rounds are serialized by the caller ([round] waits for the barrier
     before returning), so a worker that saw epoch [seen] wakes to
     exactly [seen + 1]; reading it under the lock keeps that an
     implementation detail rather than an assumption. *)
  let rec worker_loop t w ~seen =
    let next =
      locked t (fun () ->
          while t.epoch = seen && not t.stopped do
            Condition.wait t.start t.mutex
          done;
          if t.stopped then None
          else Some (t.epoch, Option.get t.job))
    in
    match next with
    | None -> ()
    | Some (epoch, job) ->
        (* Round bodies catch their own exceptions ([map_chunks] funnels
           them through an atomic); anything escaping here is a harness
           bug or a runtime exception, preserved for the submitter. *)
        (try job w
         with exn ->
           locked t (fun () ->
               if t.crashed = None then t.crashed <- Some exn));
        locked t (fun () ->
            t.active <- t.active - 1;
            if t.active = 0 then Condition.signal t.finished);
        worker_loop t w ~seen:epoch

  (* Effective size is capped at the host core count unless the caller
     opts into oversubscription. OCaml 5 minor collections are
     stop-the-world across every running domain: with more domains than
     cores, each collection is an OS-scheduler rendezvous, and a
     measured allocation-heavy round runs ~13x slower at 8 domains on a
     1-core host. Capping costs nothing — [map_chunks] results are
     chunk-boundary independent, so the reduction is byte-identical at
     any requested [jobs]. [oversubscribe:true] exists for the test
     suite, which needs real multi-worker interleavings regardless of
     the host. *)
  let create ?(oversubscribe = false) ~jobs () =
    if jobs < 1 then invalid_arg "Pool.Team.create: jobs must be >= 1";
    let size = if oversubscribe then jobs else min jobs (recommended_jobs ()) in
    let t =
      {
        size;
        mutex = Mutex.create ();
        start = Condition.create ();
        finished = Condition.create ();
        job = None;
        epoch = 0;
        active = 0;
        crashed = None;
        stopped = false;
        domains = [||];
      }
    in
    t.domains <-
      Array.init (size - 1) (fun i ->
          Domain.spawn (fun () ->
              (* Worker 0 is the calling domain. *)
              Obs.set_worker (i + 1);
              worker_loop t (i + 1) ~seen:0));
    t

  let round t job =
    if t.size = 1 then job 0
    else begin
      locked t (fun () ->
          if t.stopped then
            invalid_arg "Pool.Team.round: team already shut down";
          t.job <- Some job;
          t.epoch <- t.epoch + 1;
          t.active <- t.size - 1;
          Condition.broadcast t.start);
      (* The caller is worker 0. Wait for the barrier even if its own
         share raises, so no round outlives this call. *)
      Fun.protect
        ~finally:(fun () ->
          locked t (fun () ->
              while t.active > 0 do
                Condition.wait t.finished t.mutex
              done;
              t.job <- None))
        (fun () -> job 0);
      match
        locked t (fun () ->
            let c = t.crashed in
            t.crashed <- None;
            c)
      with
      | Some exn -> raise exn
      | None -> ()
    end

  let shutdown t =
    let join =
      locked t (fun () ->
          if t.stopped then false
          else begin
            t.stopped <- true;
            Condition.broadcast t.start;
            true
          end)
    in
    if join then Array.iter Domain.join t.domains

  let with_team ?oversubscribe ~jobs f =
    let t = create ?oversubscribe ~jobs () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end

(* -- work-stealing chunk scheduler ----------------------------------------- *)

type 'a chunk = { c_lo : int; c_hi : int; c_value : 'a }

(* A contiguous slab of indices still unclaimed by worker [w]. The
   record is immutable; ownership transfers go through a single
   compare-and-set on the enclosing [Atomic.t], and every CAS writes a
   fresh record, so physical-equality CAS cannot ABA. Invariants:
   - the descriptors plus the already-claimed chunks always partition
     the initial [0, length) range;
   - owners claim from [lo] upward, thieves detach the top half, so a
     descriptor always denotes the contiguous range [lo, hi). *)
type range = { lo : int; hi : int }

let default_min_chunk = 256

let map_chunks ?(stats = Obs.null) ?(min_chunk = default_min_chunk) team
    ~length ~f () =
  if min_chunk < 1 then
    invalid_arg "Pool.map_chunks: min_chunk must be >= 1";
  if length <= 0 then [||]
  else begin
    let size = Team.size team in
    (* Balanced contiguous initial shares, the leading ones taking the
       remainder; with fewer indices than workers the rest start empty. *)
    let base = length / size and extra = length mod size in
    let deques =
      Array.init size (fun i ->
          let lo = (i * base) + min i extra in
          Atomic.make { lo; hi = lo + base + if i < extra then 1 else 0 })
    in
    let remaining = Atomic.make length in
    let failure = Atomic.make None in
    (* One result list per worker slot: disjoint writes, read only after
       the round barrier (the team mutex orders them). *)
    let results = Array.make size [] in
    (* Owner side: claim an adaptive chunk off the low end. The first
       claim takes half the descriptor (coarse start); every later claim
       halves what is left, never below [min_chunk], and swallows a
       sub-[2*min_chunk] tail whole so no empty or dusty range survives. *)
    let rec take d =
      let r = Atomic.get d in
      let n = r.hi - r.lo in
      if n <= 0 then None
      else begin
        let step = if n <= 2 * min_chunk then n else n / 2 in
        if Atomic.compare_and_set d r { lo = r.lo + step; hi = r.hi } then
          Some (r.lo, r.lo + step)
        else take d
      end
    in
    (* Thief side: detach the top half of a victim descriptor, leaving
       the owner its low half. Small ranges are not worth migrating. *)
    let rec steal_from d =
      let r = Atomic.get d in
      let n = r.hi - r.lo in
      if n < 2 * min_chunk then None
      else begin
        let mid = r.lo + (n / 2) in
        if Atomic.compare_and_set d r { lo = r.lo; hi = mid } then
          Some { lo = mid; hi = r.hi }
        else steal_from d
      end
    in
    let run_chunk w lo hi =
      let evaluate () =
        if not (Obs.enabled stats) then f ~worker:w ~lo ~hi
        else begin
          Obs.add stats "pool/chunks";
          Obs.span stats
            (Printf.sprintf "pool/worker%d" (Obs.current_worker ()))
            (fun () -> f ~worker:w ~lo ~hi)
        end
      in
      match evaluate () with
      | value ->
          results.(w) <- { c_lo = lo; c_hi = hi; c_value = value } :: results.(w);
          ignore (Atomic.fetch_and_add remaining (lo - hi))
      | exception exn ->
          (* First failure wins; everyone else drains and exits. *)
          ignore (Atomic.compare_and_set failure None (Some exn))
    in
    let run_worker w =
      let my = deques.(w) in
      (* Sweep budget: a worker whose own descriptor is dry retries the
         victims a bounded number of times before leaving the round.
         Unbounded spinning would burn a core that the chunk holders
         need (this repo's reference host has one); bounded exit only
         costs tail balance, never coverage — owners always drain their
         own descriptors. *)
      let rec chunks () =
        match take my with
        | Some (lo, hi) ->
            if Atomic.get failure = None then begin
              run_chunk w lo hi;
              chunks ()
            end
        | None -> hunt (4 * size)
      and hunt budget =
        if
          budget > 0
          && Atomic.get failure = None
          && Atomic.get remaining > 0
        then begin
          let stolen = ref None in
          let v = ref 1 in
          while !stolen = None && !v < size do
            (match steal_from deques.((w + !v) mod size) with
            | Some r -> stolen := Some r
            | None -> ());
            incr v
          done;
          match !stolen with
          | Some r ->
              (* Our descriptor is empty (only its owner refills it), so
                 a plain store is race-free: thieves never CAS a
                 descriptor they saw sub-[2*min_chunk]. *)
              Atomic.set my r;
              if Obs.enabled stats then Obs.add stats "pool/steals";
              chunks ()
          | None ->
              Domain.cpu_relax ();
              hunt (budget - 1)
        end
      in
      chunks ()
    in
    Team.round team run_worker;
    (match Atomic.get failure with Some exn -> raise exn | None -> ());
    let all =
      Array.fold_left (fun acc l -> List.rev_append l acc) [] results
      |> Array.of_list
    in
    Array.sort (fun a b -> compare a.c_lo b.c_lo) all;
    all
  end

module Shared_min = struct
  type 'a key = { time : int; rank : int; payload : 'a option }
  type 'a t = { cell : 'a key Atomic.t; publications : int Atomic.t }

  let create initial =
    {
      cell = Atomic.make { time = initial; rank = -1; payload = None };
      publications = Atomic.make 0;
    }

  let get t = (Atomic.get t.cell).time
  let rank t = (Atomic.get t.cell).rank
  let winner t = (Atomic.get t.cell).payload

  let below a b = a.time < b.time || (a.time = b.time && a.rank < b.rank)

  (* Physical equality is what [compare_and_set] tests, and every
     published key is a fresh record, so a lost race re-reads and
     retries against the key that beat it. *)
  let rec publish t k =
    let current = Atomic.get t.cell in
    if below k current then
      if Atomic.compare_and_set t.cell current k then
        Atomic.incr t.publications
      else publish t k

  let improve t ~time ~rank payload =
    publish t { time; rank; payload = Some payload }

  let publications t = Atomic.get t.publications

  (* A worker-local view of the incumbent: reads come from a plain field
     refreshed from the atomic once every [refresh_every] calls, and
     only local improvements touch the shared cell at all. With one
     worker the mirror is exact (it is the only publisher), which is
     what keeps the jobs=1 threshold sequence byte-identical to the
     historical sequential path. *)
  type 'a mirror = {
    shared : 'a t;
    mutable known : 'a key;
    mutable credit : int;
  }

  let refresh_every = 32

  let mirror t =
    { shared = t; known = Atomic.get t.cell; credit = refresh_every }

  (* The one tie rule. A candidate that merely ties the incumbent's time
     wins only with a lower rank, so it may complete (threshold
     [time + 1]) exactly when its rank is below the incumbent's. The
     refresh needs no comparison: the shared key is never above the
     known one, which is either a past shared key or an own published
     improvement. *)
  let mirror_threshold m ~rank =
    if m.credit <= 0 then begin
      m.credit <- refresh_every;
      m.known <- Atomic.get m.shared.cell
    end
    else m.credit <- m.credit - 1;
    let k = m.known in
    if rank < k.rank && k.time < max_int then k.time + 1 else k.time
  [@@soctam.hot]

  let mirror_get m = m.known.time

  let mirror_improve m ~time ~rank payload =
    let k = { time; rank; payload = Some payload } in
    if below k m.known then begin
      m.known <- k;
      publish m.shared k
    end
end
