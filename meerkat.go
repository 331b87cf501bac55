// Package meerkat is a multicore-scalable, replicated, in-memory,
// transactional key-value store — an implementation of the system described
// in "Meerkat: Multicore-Scalable Replicated Transactions Following the
// Zero-Coordination Principle" (Szekeres et al., EuroSys 2020).
//
// Meerkat provides one-copy serializable interactive transactions over
// n = 2f+1 replicas, tolerating f crash failures, and is designed so that
// non-conflicting transactions require no cross-core and no cross-replica
// coordination (the Zero-Coordination Principle): transaction state is
// partitioned per core, storage metadata per key, timestamps come from
// client clocks, and the commit protocol's fast path decides in a single
// round trip to the replicas.
//
// # Quick start
//
//	db, err := meerkat.Open(meerkat.Config{})
//	if err != nil { ... }
//	defer db.Close()
//
//	client, err := db.Client()
//	if err != nil { ... }
//	defer client.Close()
//
//	err = client.Run(ctx, func(t *meerkat.Txn) error {
//		balance, err := t.Read("alice")
//		if err != nil {
//			return err
//		}
//		t.Write("alice", deposit(balance))
//		return nil
//	})
//
// Run commits the transaction the body builds, retrying it (with backoff)
// whenever optimistic validation loses to a conflicting transaction, and the
// context it is given bounds everything inside it — the body's reads as well
// as the commit. See the examples directory for complete programs.
package meerkat
