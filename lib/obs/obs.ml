let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Worker ids are ambient (domain-local) so library code never threads
   them: Pool.Team tags each domain once, recording reads the tag. *)
let worker_key = Domain.DLS.new_key (fun () -> 0)
let set_worker id = Domain.DLS.set worker_key id
let current_worker () = Domain.DLS.get worker_key

type hist = { h_count : int; h_sum : int; h_min : int; h_max : int }

type span_stat = {
  s_count : int;
  s_total_ns : int;
  s_min_ns : int;
  s_max_ns : int;
}

type ev = { e_t_ns : int; e_worker : int; e_name : string; e_value : int option }

type snapshot = {
  counters : (string * int) list;
  worker_counters : (int * (string * int) list) list;
  histograms : (string * hist) list;
  spans : (string * span_stat) list;
  events : ev list;
  dropped_events : int;
  elapsed_ns : int;
}

let event_capacity = 4096

type active = {
  mutex : Mutex.t;
  (* (worker, name) -> value; the aggregate is derived at snapshot time
     so recording touches exactly one table entry. *)
  counters_tbl : (int * string, int) Hashtbl.t;
  hist_tbl : (string, hist) Hashtbl.t;
  span_tbl : (string, span_stat) Hashtbl.t;
  mutable events_rev : ev list;
  mutable event_count : int;
  mutable dropped : int;
  start_ns : int;
}

type t = Null | Active of active

let null = Null

let create () =
  Active
    {
      mutex = Mutex.create ();
      counters_tbl = Hashtbl.create 64;
      hist_tbl = Hashtbl.create 16;
      span_tbl = Hashtbl.create 16;
      events_rev = [];
      event_count = 0;
      dropped = 0;
      start_ns = now_ns ();
    }

let enabled = function Null -> false | Active _ -> true

let locked a f =
  Mutex.lock a.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock a.mutex) f

let add t ?(n = 1) name =
  match t with
  | Null -> ()
  | Active a ->
      if n < 0 then invalid_arg "Obs.add: counters are monotone (n < 0)";
      if n > 0 then begin
        let key = (current_worker (), name) in
        locked a (fun () ->
            let prev =
              Option.value ~default:0 (Hashtbl.find_opt a.counters_tbl key)
            in
            Hashtbl.replace a.counters_tbl key (prev + n))
      end

let observe t name v =
  match t with
  | Null -> ()
  | Active a ->
      if v < 0 then invalid_arg "Obs.observe: negative sample";
      locked a (fun () ->
          let h =
            match Hashtbl.find_opt a.hist_tbl name with
            | None -> { h_count = 1; h_sum = v; h_min = v; h_max = v }
            | Some h ->
                {
                  h_count = h.h_count + 1;
                  h_sum = h.h_sum + v;
                  h_min = min h.h_min v;
                  h_max = max h.h_max v;
                }
          in
          Hashtbl.replace a.hist_tbl name h)

let record_span a name ns =
  locked a (fun () ->
      let s =
        match Hashtbl.find_opt a.span_tbl name with
        | None -> { s_count = 1; s_total_ns = ns; s_min_ns = ns; s_max_ns = ns }
        | Some s ->
            {
              s_count = s.s_count + 1;
              s_total_ns = s.s_total_ns + ns;
              s_min_ns = min s.s_min_ns ns;
              s_max_ns = max s.s_max_ns ns;
            }
      in
      Hashtbl.replace a.span_tbl name s)

let span t name f =
  match t with
  | Null -> f ()
  | Active a ->
      let start = now_ns () in
      Fun.protect
        ~finally:(fun () -> record_span a name (now_ns () - start))
        f

let event t ?value name =
  match t with
  | Null -> ()
  | Active a ->
      let e =
        {
          e_t_ns = now_ns () - a.start_ns;
          e_worker = current_worker ();
          e_name = name;
          e_value = value;
        }
      in
      locked a (fun () ->
          if a.event_count >= event_capacity then a.dropped <- a.dropped + 1
          else begin
            a.events_rev <- e :: a.events_rev;
            a.event_count <- a.event_count + 1
          end)

(* The match on [t] comes first so a [Null] collector never boxes the
   value: the caller passes a plain [int], unlike [event ~value] where
   the [Some] is built at the call site before [event] can look at [t]. *)
let event_v t value name =
  match t with Null -> () | Active _ -> event t ~value name

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot t =
  match t with
  | Null ->
      {
        counters = [];
        worker_counters = [];
        histograms = [];
        spans = [];
        events = [];
        dropped_events = 0;
        elapsed_ns = 0;
      }
  | Active a ->
      locked a (fun () ->
          let aggregate = Hashtbl.create 64 in
          let per_worker = Hashtbl.create 8 in
          Hashtbl.iter
            (fun (worker, name) v ->
              let prev =
                Option.value ~default:0 (Hashtbl.find_opt aggregate name)
              in
              Hashtbl.replace aggregate name (prev + v);
              let rest =
                Option.value ~default:[] (Hashtbl.find_opt per_worker worker)
              in
              Hashtbl.replace per_worker worker ((name, v) :: rest))
            a.counters_tbl;
          let worker_counters =
            Hashtbl.fold
              (fun worker binds acc ->
                ( worker,
                  List.sort (fun (x, _) (y, _) -> compare x y) binds )
                :: acc)
              per_worker []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          {
            counters = sorted_bindings aggregate;
            worker_counters;
            histograms = sorted_bindings a.hist_tbl;
            spans = sorted_bindings a.span_tbl;
            events = List.rev a.events_rev;
            dropped_events = a.dropped;
            elapsed_ns = now_ns () - a.start_ns;
          })

let counter_value snap name =
  Option.value ~default:0 (List.assoc_opt name snap.counters)
