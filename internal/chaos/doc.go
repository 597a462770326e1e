// Package chaos hosts the fault-injection test suite: it iterates
// every failpoint site registered by the library (see
// internal/failpoint) crossed with every arm (error, panic, delay
// under a deadline) and asserts the robustness contract of the Ctx
// APIs:
//
//   - faults surface as clean typed errors (wrapping
//     failpoint.ErrInjected, context errors, run.ErrBudgetExceeded, or
//     a recovered-worker-panic error) — never as an unrecovered crash;
//   - any result returned alongside success still satisfies the
//     invariant checkers in internal/check (ValidCore, ValidCover);
//   - no goroutine outlives the interrupted call.
//
// The distributed runtime's sites (dist.send, dist.recv,
// dist.heartbeat, dist.reassign) carry an inverted contract: the
// coordinator absorbs injected faults by worker-death replay from the
// last committed barrier (a failed send is a death like any other) or
// the local fallback, so a fired error arm followed by a clean, exactly-correct
// result is the expected outcome there.  Their driver kills a worker
// at the first committed barrier so every run also crosses the
// death-recovery path.
//
// The package contains no library code; the suite lives in the test
// files so production binaries never link it.
package chaos
