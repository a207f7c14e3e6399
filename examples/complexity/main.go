// Complexity: the paper's future work, implemented — interface
// complexity variants (multi-parameter operations, nested envelopes,
// collections) and the rpc/literal binding style. The example runs a
// scaled campaign per configuration and shows that the error picture
// is class-driven: complexity and style change emission cost, not the
// defect counts.
//
// Run with:
//
//	go run ./examples/complexity
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"wsinterop/internal/campaign"
	"wsinterop/internal/services"
	"wsinterop/internal/wsdl"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const limit = 300
	type config struct {
		name string
		opts []campaign.Option
	}
	rpc := campaign.WithStyle(wsdl.StyleRPC)
	configs := []config{
		{"document/literal + simple (the paper)", nil},
		{"document/literal + multi-param", []campaign.Option{campaign.WithVariant(services.VariantMultiParam)}},
		{"document/literal + nested", []campaign.Option{campaign.WithVariant(services.VariantNested)}},
		{"document/literal + collection", []campaign.Option{campaign.WithVariant(services.VariantCollection)}},
		{"rpc/literal + simple", []campaign.Option{rpc}},
		{"rpc/literal + multi-param", []campaign.Option{rpc, campaign.WithVariant(services.VariantMultiParam)}},
	}

	fmt.Printf("%-40s %9s %8s %8s %9s %9s\n",
		"configuration", "published", "genErr", "compErr", "WS-I flag", "elapsed")
	for _, c := range configs {
		start := time.Now()
		opts := append([]campaign.Option{campaign.WithLimit(limit)}, c.opts...)
		res, err := campaign.New(opts...).Run(context.Background())
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		genErr, compErr := 0, 0
		for _, s := range res.Servers {
			genErr += s.GenErrors
			compErr += s.CompileErrors
		}
		fmt.Printf("%-40s %9d %8d %8d %9d %9s\n",
			c.name, res.TotalPublished, genErr, compErr, res.FlaggedServices,
			time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("\nidentical defect counts across rows: the interoperability failures")
	fmt.Println("of this corpus are caused by parameter classes, not interface shape.")
	return nil
}
