package serve

import "testing"

// tinyMix is an advect-only mix for the race-enabled smoke run.
func tinyMix() []JobSpec {
	return []JobSpec{{
		Type: TypeAdvect, Ranks: 2, Steps: 2,
		Level: 1, MaxLevel: 1,
		AdaptEvery: -1, CheckpointEvery: -1, MaxRestarts: -1,
	}}
}

// TestLoadSmall runs the whole client/server loop in-process at a size
// the race detector can chew through: every job must complete, and with
// more clients than workers some of them must have waited in the queue.
func TestLoadSmall(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxActive: 2, MaxQueue: 4})
	res, err := RunLoad(LoadOptions{
		BaseURL:     ts.URL,
		Jobs:        12,
		Concurrency: 6,
		Mix:         tinyMix(),
	})
	s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 12 {
		t.Fatalf("completed = %d/12 (failed %d): %+v", res.Completed, res.Failed, res)
	}
	if res.QueuedJobs == 0 && res.Retries429 == 0 {
		t.Error("queue never engaged: MaxQueue 4 with 6 clients should back up")
	}
	if res.JobsPerSec <= 0 || res.LatencyP99Seconds < res.LatencyP50Seconds {
		t.Errorf("implausible stats: %+v", res)
	}
}
