package meerkat_test

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"time"

	"meerkat"
)

// Example shows the minimal lifecycle: open a DB, get a client, run one
// transaction. Run retries optimistic conflicts until the body's validation
// wins, and its context bounds the reads inside the body as well as the
// commit.
func Example() {
	db, err := meerkat.Open(meerkat.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	db.Load("counter", []byte("41"))

	client, err := db.Client()
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = client.Run(ctx, func(t *meerkat.Txn) error {
		v, err := t.Read("counter")
		if err != nil {
			return err
		}
		n, _ := strconv.Atoi(string(v))
		t.Write("counter", []byte(strconv.Itoa(n+1)))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	v, err := client.GetStrong("counter")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(v))
	// Output: 42
}

// ExampleAdmin_CrashReplica shows fault tolerance: with one of three
// replicas down, transactions keep committing on the slow path.
func ExampleAdmin_CrashReplica() {
	db, err := meerkat.Open(meerkat.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	client, err := db.Client()
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	db.Admin().CrashReplica(0, 2)
	if err := client.Put("k", []byte("still works")); err != nil {
		log.Fatal(err)
	}
	v, err := client.GetStrong("k")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(v))
	// Output: still works
}
