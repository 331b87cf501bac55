package meerkat

import (
	"errors"
	"fmt"

	"meerkat/internal/coordinator"
	"meerkat/internal/transport"
)

// Sentinel errors of the public API. Every protocol error returned by a
// Client, Session or Txn method — Read, ReadMany, Commit, Resolve, Run, Get,
// GetStrong, Put — unwraps (errors.Is) to exactly one of ErrConflict,
// ErrTimeout, ErrWrongShard and ErrClusterClosed, so callers branch on kind
// instead of matching message strings.
var (
	// ErrConflict means optimistic validation lost to a conflicting
	// transaction. The transaction had no effect; retrying it (Client.Run
	// does this automatically, with backoff) usually succeeds.
	ErrConflict = errors.New("meerkat: transaction conflict")

	// ErrTimeout means the protocol could not assemble the quorums it
	// needed — within the retry budget, or before the caller's context
	// expired (the context's error is wrapped alongside, so
	// errors.Is(err, context.DeadlineExceeded) also works). After a
	// timed-out Commit the outcome is UNKNOWN: the writes may yet commit.
	// Txn.Resolve learns the final outcome.
	ErrTimeout = errors.New("meerkat: timed out, outcome unknown")

	// ErrClusterClosed means the cluster (or this client's endpoints) has
	// been shut down; no retry can succeed.
	ErrClusterClosed = errors.New("meerkat: cluster closed")

	// ErrPortMap means a TransportUDP configuration cannot fit the UDP
	// port map: node-id slot ranges collide (e.g. too many
	// partition×replica nodes reaching into the recovery-coordinator
	// slots) or the highest address overflows the 16-bit port space.
	// Returned by Config.Validate / Open before any socket binds.
	ErrPortMap = errors.New("meerkat: UDP port map invalid")

	// ErrWrongShard means a request reached a replica group that does not
	// own the key under the cluster's current shard map. The operation had
	// no effect. Client.Run handles this internally — it refreshes the
	// client's cached map and re-routes — so callers see it only from bare
	// operations (Get, a direct Commit) issued while a shard split is
	// moving the key's range.
	ErrWrongShard = errors.New("meerkat: wrong shard for key")

	// ErrStaleShardMap is the client-side cause behind ErrWrongShard: the
	// client routed with a shard map older than the cluster's. Errors
	// carrying it unwrap to ErrWrongShard too, so callers may branch on
	// either. Retrying (after the automatic cache refresh) re-routes
	// correctly once the new map is published.
	ErrStaleShardMap = fmt.Errorf("%w: shard map is stale", ErrWrongShard)
)

// mapErr translates internal protocol errors into the public sentinels.
// Errors already carrying a sentinel (or foreign errors like ErrTxnAborted
// and fn-supplied errors) pass through unchanged.
func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrConflict), errors.Is(err, ErrTimeout), errors.Is(err, ErrClusterClosed):
		return err
	case errors.Is(err, coordinator.ErrWrongShard):
		// Unwraps to ErrStaleShardMap, ErrWrongShard, and the internal
		// sentinel. Checked before ErrTimeout: a wrong-shard abort is a
		// known outcome, never outcome-unknown.
		return fmt.Errorf("%w: %w", ErrStaleShardMap, err)
	case errors.Is(err, coordinator.ErrTimeout):
		// Multi-%w: the result unwraps to ErrTimeout and to whatever the
		// internal error carries (e.g. context.DeadlineExceeded).
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	case errors.Is(err, transport.ErrClosed):
		return fmt.Errorf("%w: %w", ErrClusterClosed, err)
	default:
		return err
	}
}
