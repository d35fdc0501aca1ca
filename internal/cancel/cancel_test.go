package cancel

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestCheckLiveContext(t *testing.T) {
	if err := Check(context.Background()); err != nil {
		t.Fatalf("live context: %v", err)
	}
	if err := Check(nil); err != nil {
		t.Fatalf("nil context: %v", err)
	}
}

func TestFromCanceled(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	err := Check(ctx)
	if err == nil {
		t.Fatal("canceled context: want error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Fatalf("plain cancellation must not match ErrDeadline: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause not exposed: %v", err)
	}
}

func TestFromDeadline(t *testing.T) {
	ctx, cancelFn := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancelFn()
	<-ctx.Done()
	err := Check(ctx)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	// A deadline is a kind of cancellation.
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("deadline must also match ErrCanceled: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause not exposed: %v", err)
	}
}

func TestFromCustomCause(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancelFn := context.WithCancelCause(context.Background())
	cancelFn(boom)
	err := Check(ctx)
	if !errors.Is(err, boom) {
		t.Fatalf("custom cause not exposed: %v", err)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestErrorCarriesPartialStats(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	e := From(ctx)
	e.Iterations = 3
	e.EntriesFilled = 4096
	var got *Error
	if !errors.As(error(e), &got) {
		t.Fatal("errors.As failed")
	}
	if got.Iterations != 3 || got.EntriesFilled != 4096 {
		t.Fatalf("partial stats lost: %+v", got)
	}
}
