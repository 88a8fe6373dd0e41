package obshttp

import (
	"strconv"
	"time"

	"memif/internal/obs"
	"memif/internal/obs/lifecycle"
	"memif/internal/qos"
	"memif/internal/realtime"
	"memif/internal/streamrt"
	"memif/internal/swapd"
)

// RealtimeMetrics maps a realtime.StatsSnapshot onto the
// memif_realtime_* namespace. A non-empty device value becomes a
// {device="..."} label on every series, so several devices can share a
// handler.
func RealtimeMetrics(device string, s realtime.StatsSnapshot) []Metric {
	lb := deviceLabel(device)
	ms := []Metric{
		counter("memif_realtime_submitted_total", "Requests accepted into the pipeline.", lb, s.Submitted),
		counter("memif_realtime_completed_total", "Requests reaching a terminal state (includes canceled/expired/failed).", lb, s.Completed),
		counter("memif_realtime_canceled_total", "Requests canceled before or during the copy.", lb, s.Canceled),
		counter("memif_realtime_expired_total", "Requests that missed their deadline.", lb, s.Expired),
		counter("memif_realtime_failed_total", "Requests failing for other reasons.", lb, s.Failed),
		counter("memif_realtime_kicks_total", "Kick-start syscall-equivalents issued.", lb, s.Kicks),
		counter("memif_realtime_worker_wakes_total", "Times the worker slept and was woken.", lb, s.WorkerWakes),
		counter("memif_realtime_poller_spins_total", "Poll/PollContext micro-waits resolved by spinning (no sleep paid).", lb, s.PollerSpins),
		counter("memif_realtime_poller_parks_total", "Poll/PollContext blocking sleeps after the spin budget missed.", lb, s.PollerParks),
		counter("memif_realtime_batches_total", "SubmitBatch calls.", lb, s.Batches),
		counter("memif_realtime_chunks_total", "Controller work units executed.", lb, s.Chunks),
		counter("memif_realtime_bytes_moved_total", "Payload bytes actually copied.", lb, s.BytesMoved),
		counter("memif_realtime_dispatch_retries_total", "Worker backoffs with the chunk ring full.", lb, s.DispatchRetries),
		counter("memif_realtime_double_completes_total", "Completion paths finding the request already terminal (must stay 0).", lb, s.DoubleCompletes),
		counter("memif_realtime_shed_total", "Submissions rejected by the admission controller with ErrOverload.", lb, s.Shed),
		counter("memif_realtime_overload_completions_total", "Admission rejections surfaced as ErrOverload completions (batch members).", lb, s.Overloaded),
		counter("memif_realtime_inline_completed_total", "Requests copied inline by the worker (adaptive poll path).", lb, s.InlineCompleted),
		counter("memif_realtime_inline_retunes_total", "Adaptive inline-threshold recomputations.", lb, s.Retunes),
		counter("memif_realtime_aged_pops_total", "Dispatches serving a lower class out of strict-priority order.", lb, s.AgedPops),
		gauge("memif_realtime_inline_threshold_bytes", "Current adaptive inline-completion cutoff (0 = disabled).", lb, s.InlineThresholdBytes),
		gauge("memif_realtime_staging_depth", "Live staging-queue depth at scrape time.", lb, s.StagingDepth),
		gauge("memif_realtime_submission_depth", "Requests the worker took off staging but has not yet dispatched, in the scheduler's buckets, at scrape time.", lb, s.SubmissionDepth),
		gauge("memif_realtime_completion_depth", "Live completion-queue depth at scrape time.", lb, s.CompletionDepth),
		gauge("memif_realtime_ring_depth", "Live chunk-ring occupancy at scrape time.", lb, s.RingDepth),
		gauge("memif_realtime_completion_depth_high_water", "Deepest the completion queue has ever been.", lb, s.CompletionHighWater),
		hist("memif_realtime_request_latency_ns", "Submission-to-completion latency (ns).", lb, s.Latency),
		hist("memif_realtime_request_bytes", "Request payload size (bytes).", lb, s.Sizes),
	}
	for c := range s.Classes {
		cs := s.Classes[c]
		clb := with(lb, Label{"class", classLabel(c)})
		ms = append(ms,
			counter("memif_realtime_class_submitted_total", "Accepted submissions by priority class.", clb, cs.Submitted),
			counter("memif_realtime_class_completed_total", "Terminal requests by priority class.", clb, cs.Completed),
			counter("memif_realtime_class_shed_total", "Admission rejections by priority class.", clb, cs.Shed),
			gauge("memif_realtime_class_in_flight", "Live accepted-but-not-terminal requests by priority class.", clb, cs.InFlight),
			hist("memif_realtime_class_request_latency_ns", "Submission-to-completion latency by priority class (ns).", clb, cs.Latency),
		)
	}
	for _, ts := range s.Tenants {
		tlb := with(lb, Label{"tenant", ts.Name})
		ms = append(ms,
			counter("memif_realtime_tenant_submitted_total", "Accepted submissions by tenant.", tlb, ts.Submitted),
			counter("memif_realtime_tenant_completed_total", "Terminal requests by tenant.", tlb, ts.Completed),
			counter("memif_realtime_tenant_shed_total", "Admission rejections charged to the tenant's quota.", tlb, ts.Shed),
			counter("memif_realtime_tenant_canceled_total", "ErrCanceled completions by tenant (Cancel and CancelAll).", tlb, ts.Canceled),
			gauge("memif_realtime_tenant_weight", "Configured DRR weight (requests per scheduling round).", tlb, ts.Weight),
			gauge("memif_realtime_tenant_slot_quota", "Configured in-flight cap (0 = default namespace, global admission).", tlb, ts.SlotQuota),
			gauge("memif_realtime_tenant_in_flight", "Live accepted-but-not-terminal requests by tenant.", tlb, ts.InFlight),
			gauge("memif_realtime_tenant_queue_depth", "Live drained-but-not-dispatched requests by tenant.", tlb, ts.QueueDepth),
			hist("memif_realtime_tenant_request_latency_ns", "Submission-to-completion latency by tenant (ns).", tlb, ts.Latency),
		)
		if s.Lifecycle.Enabled {
			ms = append(ms, SpanMetrics("memif_realtime_tenant_stage_latency_ns",
				"Per-stage latency attribution of sampled requests by tenant (ns).", tlb, ts.Spans)...)
		}
	}
	if s.Lifecycle.Enabled {
		ms = append(ms,
			gauge("memif_realtime_trace_sample_shift", "Lifecycle sampling shift: 1 request in 2^shift is traced.", lb, int64(s.Lifecycle.SampleShift)),
			counter("memif_realtime_trace_begun_total", "Sampled lifecycles opened.", lb, s.Lifecycle.Begun),
			counter("memif_realtime_trace_ended_total", "Sampled lifecycles completed through retrieval.", lb, s.Lifecycle.Ended),
			counter("memif_realtime_trace_aborted_total", "Sampled lifecycles abandoned by failed submissions.", lb, s.Lifecycle.Aborted),
		)
		ms = append(ms, SpanMetrics("memif_realtime_stage_latency_ns",
			"Per-stage latency attribution of sampled requests (ns).", lb, s.Lifecycle.Spans)...)
		for c, sp := range s.Lifecycle.ClassSpans {
			clb := with(lb, Label{"class", classLabel(c)})
			ms = append(ms, SpanMetrics("memif_realtime_class_stage_latency_ns",
				"Per-stage latency attribution of sampled requests by priority class (ns).", clb, sp)...)
		}
	}
	if s.Flight.Enabled {
		tenantName := func(t int) string {
			if t >= 0 && t < len(s.Tenants) {
				return s.Tenants[t].Name
			}
			return strconv.Itoa(t)
		}
		ms = append(ms, flightMetrics("memif_realtime", lb, s.Flight, classLabel, tenantName)...)
	}
	return ms
}

// flightMetrics renders one subsystem's flight-recorder snapshot as the
// {prefix}_flight_* and {prefix}_slo_* series. className and tenantName
// map the recorder's numeric lanes onto the subsystem's label
// vocabulary.
func flightMetrics(prefix string, lb []Label, fs lifecycle.FlightSnapshot, className func(int) string, tenantName func(int) string) []Metric {
	if !fs.Enabled {
		return nil
	}
	ms := []Metric{
		counter(prefix+"_flight_breaches_total", "Completed requests whose latency breached the adaptive outlier threshold.", lb, fs.Breaches),
		counter(prefix+"_flight_stall_events_total", "Watchdog stall reports (worker stall, completion backlog, poller starvation).", lb, fs.Stalls),
		counter(prefix+"_flight_domain_events_total", "Domain events captured into the flight ring (txn aborts, promotion lag).", lb, fs.Events),
		counter(prefix+"_flight_captured_total", "Records pushed into the outlier ring, all kinds (full records at /debug/outliers).", lb, fs.Captured),
	}
	for _, lt := range fs.Thresholds {
		if lt.Tenant != 0 {
			continue // per-tenant lanes stay in /debug/outliers; /metrics keeps a bounded series set
		}
		clb := with(lb, Label{"class", className(lt.Class)})
		ms = append(ms,
			gauge(prefix+"_flight_threshold_ns", "Adaptive outlier threshold in force: max(floor, mult × EWMA) on the tenant-0 lane.", clb, lt.ThresholdNs),
			gauge(prefix+"_flight_latency_ewma_ns", "Lane latency EWMA behind the adaptive threshold (tenant-0 lane).", clb, lt.EWMANs),
		)
	}
	slo := fs.SLO
	if !slo.Enabled {
		return ms
	}
	for _, cs := range slo.Classes {
		clb := with(lb, Label{"class", className(cs.Class)})
		ms = append(ms,
			gauge(prefix+"_slo_objective_ns", "Per-class latency objective (ns).", clb, cs.ObjectiveNs),
			counter(prefix+"_slo_good_total", "OK completions within the class objective.", clb, cs.Good),
			counter(prefix+"_slo_requests_total", "OK completions measured against the class objective.", clb, cs.Total),
		)
		for _, b := range cs.Burn {
			wlb := with(clb, Label{"window", windowName(b.WindowNs)})
			ms = append(ms, gaugeF(prefix+"_slo_burn_rate",
				"Error-budget burn rate over the window (1.0 = bad-request fraction exactly consumes the budget).", wlb, b.Burn))
		}
	}
	for _, ts := range slo.Tenants {
		tlb := with(lb, Label{"tenant", tenantName(ts.Tenant)})
		ms = append(ms,
			counter(prefix+"_slo_tenant_good_total", "OK completions within the tenant's class objectives.", tlb, ts.Good),
			counter(prefix+"_slo_tenant_requests_total", "OK completions measured for the tenant.", tlb, ts.Total),
		)
		for _, b := range ts.Burn {
			wlb := with(tlb, Label{"window", windowName(b.WindowNs)})
			ms = append(ms, gaugeF(prefix+"_slo_tenant_burn_rate",
				"Per-tenant error-budget burn rate over the window (window=\"total\" = cumulative, beyond the windowed-tenant cap).", wlb, b.Burn))
		}
	}
	return ms
}

// windowName renders a burn window for the window label; 0 is the
// cumulative fallback for tenants beyond the windowed-history cap.
func windowName(ns int64) string {
	if ns <= 0 {
		return "total"
	}
	return time.Duration(ns).String()
}

// RealtimeCollector wraps a live device's Stats method as a Collector.
func RealtimeCollector(device string, d *realtime.Device) Collector {
	return func() []Metric { return RealtimeMetrics(device, d.Stats()) }
}

// SwapdMetrics maps a swapd.MetricsSnapshot onto the memif_swapd_*
// namespace. Stage latencies are in virtual (simulated) nanoseconds.
func SwapdMetrics(device string, s swapd.MetricsSnapshot) []Metric {
	lb := deviceLabel(device)
	ms := []Metric{
		counter("memif_swapd_promotions_total", "Completed promotions into fast memory.", lb, s.Promotions),
		counter("memif_swapd_demotions_total", "Completed demotions out of fast memory.", lb, s.Demotions),
		counter("memif_swapd_zero_copy_demotions_total", "Demotions committed as pure PTE flips (valid slow-tier shadow, zero bytes moved).", lb, s.ZeroCopyDemotions),
		counter("memif_swapd_txn_aborts_total", "Transactional migrations aborted by racing application writes.", lb, s.Aborts),
		counter("memif_swapd_failed_total", "Migrations failed for any reason but a racing write: the claim held by another mover (busy) or no destination frames (nomem).", lb, s.Failed),
		counter("memif_swapd_bytes_promoted_total", "Requested bytes of completed promotions.", lb, s.BytesPromoted),
		counter("memif_swapd_bytes_demoted_total", "Requested bytes of completed demotions.", lb, s.BytesDemoted),
		counter("memif_swapd_bytes_moved_total", "Bytes actually copied by DMA (excludes zero-copy PTE flips).", lb, s.BytesMoved),
		hist("memif_swapd_promotion_lag_ns", "Region-turned-hot to promotion-committed lag (virtual ns).", lb, s.PromotionLag),
		hist("memif_swapd_eviction_latency_ns", "Submission-to-completion latency of successful migrations (virtual ns).", lb, s.Latency),
		hist("memif_swapd_eviction_bytes", "Per-migration payload size (bytes).", lb, s.Sizes),
	}
	ms = append(ms, SpanMetrics("memif_swapd_stage_latency_ns",
		"Per-stage latency attribution of evictions (virtual ns).", lb, s.Stages)...)
	if s.Flight.Enabled {
		ms = append(ms, flightMetrics("memif_swapd", lb, s.Flight, swapdLane, strconv.Itoa)...)
	}
	return ms
}

// classLabel is the class label of class (or flight-lane) index c.
func classLabel(c int) string { return qos.Class(c).String() }

// swapdLane names the swap daemon's flight-recorder class lanes: the
// QoS classes its migrations ride, plus the borrowed promotion-lag
// lane one past them.
func swapdLane(c int) string {
	if c == 3 {
		return "promotion_lag"
	}
	return classLabel(c)
}

// StreamEngineMetrics maps a streamrt.EngineSnapshot onto the
// memif_stream_engine_* (ring/engine totals) and per-stream
// memif_stream_* {stream="..."} namespaces. Latencies are in virtual
// (simulated) nanoseconds.
func StreamEngineMetrics(device string, s streamrt.EngineSnapshot) []Metric {
	lb := deviceLabel(device)
	ms := []Metric{
		gauge("memif_stream_engine_ring_buffers", "Pinned prefetch buffers in the engine's recycled ring.", lb, int64(s.RingBufs)),
		gauge("memif_stream_engine_buf_bytes", "Size of each ring buffer (bytes).", lb, s.BufBytes),
		gauge("memif_stream_engine_free_buffers", "Ring buffers currently unclaimed by any fill.", lb, int64(s.FreeBufs)),
		counter("memif_stream_engine_buf_mmaps_total", "mmap calls ever made for the ring — O(ring size), never O(chunks).", lb, s.BufMmaps),
		gauge("memif_stream_engine_open_streams", "Streams currently open on the engine.", lb, int64(s.OpenStreams)),
		counter("memif_stream_engine_streams_opened_total", "Streams ever opened on the engine.", lb, s.StreamsOpened),
		counter("memif_stream_engine_streams_closed_total", "Streams closed (explicitly or by completion).", lb, s.StreamsClosed),
		counter("memif_stream_engine_fills_total", "Prefetch fill grants submitted across all streams.", lb, s.Fills),
		counter("memif_stream_engine_fill_batches_total", "SubmitBatch flushes that carried the fills (fills > batches once coalescing works).", lb, s.FillBatches),
		counter("memif_stream_engine_fast_chunks_total", "Chunks consumed zero-copy from ring buffers, all streams.", lb, s.FastChunks),
		counter("memif_stream_engine_slow_chunks_total", "Chunks consumed via the never-stall fallback, all streams.", lb, s.SlowChunks),
		counter("memif_stream_engine_bytes_prefetched_total", "Payload replicated into ring buffers, all streams.", lb, s.BytesPrefetched),
		counter("memif_stream_engine_stalls_total", "Consume waits with no fill in flight (must stay 0).", lb, s.Stalls),
	}
	for i := range s.Streams {
		st := &s.Streams[i]
		slb := with(lb, Label{"stream", st.Name})
		ms = append(ms,
			gauge("memif_stream_credits", "Configured credit allowance (backpressure bound on granted fills).", slb, int64(st.Credits)),
			gauge("memif_stream_credits_in_flight", "Credits currently spent on granted fills (in flight or awaiting consume).", slb, int64(st.CreditsInFlight)),
			counter("memif_stream_credits_granted_total", "Cumulative credit grants (granted - returned = in flight).", slb, st.CreditsGranted),
			counter("memif_stream_credits_returned_total", "Cumulative credit returns on consume/failure/close.", slb, st.CreditsReturned),
			counter("memif_stream_fast_chunks_total", "Chunks consumed zero-copy out of ring buffers.", slb, st.FastChunks),
			counter("memif_stream_slow_chunks_total", "Chunks consumed straight from the slow node.", slb, st.SlowChunks),
			counter("memif_stream_bytes_prefetched_total", "Payload replicated into ring buffers for this stream.", slb, st.BytesPrefetched),
			counter("memif_stream_fills_total", "Fill grants submitted for this stream.", slb, st.Fills),
			counter("memif_stream_fill_failures_total", "Fills completing with an error.", slb, st.FillFailures),
			counter("memif_stream_tail_waits_total", "Benign end-of-stream waits for in-flight fills.", slb, st.TailWaits),
			counter("memif_stream_stalls_total", "Waits with no fill in flight (must stay 0).", slb, st.Stalls),
			hist("memif_stream_fill_latency_ns", "Submit-to-completion latency of prefetch fills (virtual ns).", slb, st.FillLatency),
		)
		ms = append(ms, SpanMetrics("memif_stream_stage_latency_ns",
			"Per-stage latency attribution of prefetch fills (virtual ns).", slb, st.Stages)...)
	}
	if s.Flight.Enabled {
		streamName := func(t int) string {
			if t >= 0 && t < len(s.StreamNames) {
				return s.StreamNames[t]
			}
			return strconv.Itoa(t)
		}
		ms = append(ms, flightMetrics("memif_stream", lb, s.Flight, classLabel, streamName)...)
	}
	return ms
}

func deviceLabel(device string) []Label {
	if device == "" {
		return nil
	}
	return []Label{{"device", device}}
}

func counter(name, help string, lb []Label, v int64) Metric {
	return Metric{Name: name, Help: help, Type: TypeCounter, Labels: lb, Value: float64(v)}
}

func gauge(name, help string, lb []Label, v int64) Metric {
	return Metric{Name: name, Help: help, Type: TypeGauge, Labels: lb, Value: float64(v)}
}

func gaugeF(name, help string, lb []Label, v float64) Metric {
	return Metric{Name: name, Help: help, Type: TypeGauge, Labels: lb, Value: v}
}

func hist(name, help string, lb []Label, h obs.HistogramSnapshot) Metric {
	return Metric{Name: name, Help: help, Type: TypeHistogram, Labels: lb, Hist: h}
}
