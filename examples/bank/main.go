// Bank: concurrent balance transfers across a partitioned keyspace.
//
// The invariant — total money is conserved — only holds if transactions are
// serializable and multi-partition commits are atomic, so this example
// exercises both Meerkat's OCC validation and its distributed-transaction
// support (§5.2.4). Run it and watch the final audit.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"meerkat"
)

const (
	accounts       = 64
	initialBalance = 1000
	tellers        = 8
	transfersEach  = 200
)

func acct(i int) string { return fmt.Sprintf("acct-%03d", i) }

func main() {
	// Two shards: transfers routinely span both, so commits must be atomic
	// across replica groups (each shard is an independent replica group
	// behind the versioned shard map).
	db, err := meerkat.Open(meerkat.Config{Shards: 2, Cores: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < accounts; i++ {
		db.Load(acct(i), []byte(strconv.Itoa(initialBalance)))
	}

	// Each transfer runs through Client.Run: conflicts retry with backoff
	// until the transfer commits, so under a generous deadline the only way
	// a transfer fails is infrastructure trouble — and then the error
	// unwraps to a package sentinel (ErrTimeout, ErrClusterClosed).
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var committed, failed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for tlr := 0; tlr < tellers; tlr++ {
		client, err := db.Client()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(client *meerkat.Client, seed int64) {
			defer wg.Done()
			defer client.Close()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < transfersEach; i++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					continue
				}
				amount := 1 + rng.Intn(50)
				err := client.Run(ctx, func(t *meerkat.Txn) error {
					fv, err := t.Read(acct(from))
					if err != nil {
						return err
					}
					tv, err := t.Read(acct(to))
					if err != nil {
						return err
					}
					fb, _ := strconv.Atoi(string(fv))
					tb, _ := strconv.Atoi(string(tv))
					if fb < amount {
						return nil // insufficient funds: commit a no-op
					}
					t.Write(acct(from), []byte(strconv.Itoa(fb-amount)))
					t.Write(acct(to), []byte(strconv.Itoa(tb+amount)))
					return nil
				})
				mu.Lock()
				if err == nil {
					committed++
				} else {
					failed++
				}
				mu.Unlock()
			}
		}(client, int64(tlr))
	}
	wg.Wait()

	// Audit inside one transaction so the sum is a consistent snapshot.
	client, err := db.Client()
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	total := 0
	err = client.Run(ctx, func(t *meerkat.Txn) error {
		total = 0
		for i := 0; i < accounts; i++ {
			v, err := t.Read(acct(i))
			if err != nil {
				return err
			}
			b, _ := strconv.Atoi(string(v))
			total += b
		}
		return nil
	})
	if err != nil {
		log.Fatalf("audit failed: %v", err)
	}

	fmt.Printf("transfers committed: %d, failed: %d\n", committed, failed)
	fmt.Printf("audit: total = %d (expected %d)\n", total, accounts*initialBalance)
	if total != accounts*initialBalance {
		log.Fatal("MONEY WAS CREATED OR DESTROYED — serializability violated")
	}
	fmt.Println("invariant holds: serializable, atomic across shards")
}
